"""Moving-plane diagnostics on solved determinant-equation fields.

Given a grid solution, a direction nu and a plane position lambda, the
frame machinery reflects the fields across the plane, forms the
difference U = u_reflected - u on the cap, and linearizes the
determinant difference through the matrix mean value identity

    det(H_refl) - det(H) = tr(A (H_refl - H)),
    A = integral_0^1 adj((1-t) H_refl + t H) dt,

whose integrand is linear in t for 2x2 Hessians, so a fixed
Gauss-Legendre rule evaluates the integral exactly.  On top of the
frames sit certificates: cap monotonicity, mirror symmetry, a Hopf
boundary derivative check, tube corner cross-derivatives and an audit
of the elliptic inequality satisfied by U.

Every field a frame or certificate reads off the grid sits in one
stacked table per solution, and one bilinear kernel reads them all at a
set of points with a single gather of the cell corners.  The 2x2
Hessian algebra of a frame (the reflection Q H Q, the mean-value matrix
and its positivity flag) runs in closed form on per-entry arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .domains import reflect_point, _as_unit, Ball, Tube
from .gridsolve import _ma_and_active
from .rhs import d_ij as rhs_d_ij

__all__ = [
    "MovingPlaneFrame",
    "LinearizationFields",
    "MovingPlaneReport",
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

@lru_cache(maxsize=None)
def _gauss_legendre01(order):
    """Gauss-Legendre nodes and weights mapped to [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def _det2(M):
    """Determinants of a stack of 2x2 matrices in closed form."""
    return M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]


def _mat2(a00, a01, a10, a11):
    """Stack entry arrays of equal shape into (..., 2, 2) matrices."""
    out = np.empty(np.shape(a00) + (2, 2))
    out[..., 0, 0], out[..., 0, 1] = a00, a01
    out[..., 1, 0], out[..., 1, 1] = a10, a11
    return out


def _reflect_hessian(Q, hxx, hxy, hyy):
    """Entries of Q H Q for H = [[hxx, hxy], [hxy, hyy]], as (Q H) Q."""
    (q00, q01), (q10, q11) = Q
    p00, p01 = q00 * hxx + q01 * hxy, q00 * hxy + q01 * hyy
    p10, p11 = q10 * hxx + q11 * hxy, q10 * hxy + q11 * hyy
    return (p00 * q00 + p01 * q10, p00 * q01 + p01 * q11,
            p10 * q00 + p11 * q10, p10 * q01 + p11 * q11)


# ---------------------------------------------------------------------------
# discrete derivative fields

def _derivative_fields(sol, i):
    """Dense E, ux, uy, uxx, uyy, uxy of component i: the ghost-extended
    array and its centered differences, trustworthy only at the valid
    nodes of :attr:`_SolutionData.stack`.
    """
    h = sol.grid.h
    E = sol.extended_array(i)
    nan = np.full_like(E, np.nan)
    ux, uy = nan.copy(), nan.copy()
    uxx, uyy, uxy = nan.copy(), nan.copy(), nan.copy()
    ux[1:-1, :] = (E[2:, :] - E[:-2, :]) / (2 * h)
    uy[:, 1:-1] = (E[:, 2:] - E[:, :-2]) / (2 * h)
    uxx[1:-1, :] = (E[2:, :] - 2 * E[1:-1, :] + E[:-2, :]) / h ** 2
    uyy[:, 1:-1] = (E[:, 2:] - 2 * E[:, 1:-1] + E[:, :-2]) / h ** 2
    uxy[1:-1, 1:-1] = (E[2:, 2:] - E[2:, :-2] - E[:-2, 2:] + E[:-2, :-2]) / (4 * h ** 2)
    return E, ux, uy, uxx, uyy, uxy


class _SolutionData:
    """Plane-independent data of one solution, each piece built on first use.

    A sweep makes one and hands it to every frame and certificate, so
    :attr:`stack`, the one table that every field is read from, is built
    once per solution instead of once per plane position.
    """

    def __init__(self, solution):
        self.solution = solution

    @cached_property
    def node_rows(self):
        """Column of :attr:`stack` holding each interior node."""
        g = self.solution.grid
        return g.node_ij[:, 0] * g.ny + g.node_ij[:, 1]

    @property
    def n_field(self):
        """Rows of :attr:`stack` before the operator fields."""
        return 6 * self.solution.m + 1

    @cached_property
    def stack(self):
        """(7m + 1, nx*ny) table of every field a frame or certificate reads.

        Rows 6i..6i+5 hold component i's E, ux, uy, uxx, uyy, uxy (the
        order of :func:`_derivative_fields`), row 6m the validity mask
        as 0/1 and the last m rows the discrete operator of the
        unreflected fields, NaN off the interior nodes so that an
        interpolant touching an exterior node is NaN.  A node is valid
        when its full 3x3 neighborhood lies inside the domain, so that no
        extrapolated ghost value enters a derivative there.  One field per
        row keeps each gathered field contiguous; :func:`_bilinear` reads
        it between nodes and a column gather at ``node_rows`` at them.
        """
        sol = self.solution
        g, m = sol.grid, sol.m
        stack = np.full((7 * m + 1, g.nx * g.ny), np.nan)
        for i in range(m):
            for k, field in enumerate(_derivative_fields(sol, i)):
                stack[6 * i + k] = field.reshape(-1)
        ins = g.inside
        valid = np.zeros_like(ins)
        valid[1:-1, 1:-1] = (ins[1:-1, 1:-1] & ins[2:, 1:-1] & ins[:-2, 1:-1]
                             & ins[1:-1, 2:] & ins[1:-1, :-2]
                             & ins[2:, 2:] & ins[2:, :-2] & ins[:-2, 2:] & ins[:-2, :-2])
        stack[6 * m] = valid.reshape(-1)
        stack[6 * m + 1:, self.node_rows] = [_ma_and_active(g, u, c)[0]
                                             for u, c in zip(sol.fields, sol.cs)]
        return stack


def _bilinear(grid, stack, pts, n_field):
    """(rows of ``stack``, len(pts)) bilinear interpolants at ``pts``.

    Each point's cell comes from one ``searchsorted`` per axis and its
    four corners are gathered once for every field.  The result is
    scipy's ``RegularGridInterpolator(method="linear",
    fill_value=nan)`` to the bit: NaN outside the grid, and NaN spreads
    from every corner, zero weights included.  The first ``n_field``
    rows multiply as its 2-D path, (v * wx) * wy; the rest as its N-D
    path, v * (wx * wy).
    """
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    xs, ys = grid.xs, grid.ys
    x, y = pts[:, 0], pts[:, 1]
    i = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(xs) - 2)
    j = np.clip(np.searchsorted(ys, y, side="right") - 1, 0, len(ys) - 2)
    tx = (x - xs[i]) / (xs[i + 1] - xs[i])
    ty = (y - ys[j]) / (ys[j + 1] - ys[j])
    # (rows, 4, P): corners (i, j), (i, j+1), (i+1, j), (i+1, j+1)
    ny = len(ys)
    v = np.take(stack, i * ny + j + np.array([[0], [1], [ny], [ny + 1]]), axis=1)
    wx = np.stack([1 - tx, 1 - tx, tx, tx])
    wy = np.stack([1 - ty, ty, 1 - ty, ty])
    v[:n_field] *= wx
    v[:n_field] *= wy
    v[n_field:] *= wx * wy
    out = 0.0 + v[:, 0] + v[:, 1] + v[:, 2] + v[:, 3]
    out[:, ~((xs[0] <= x) & (x <= xs[-1]) & (ys[0] <= y) & (y <= ys[-1]))] = np.nan
    return out


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


def build_frame(solution, nu, lam, *, _data=None):
    """Reflect the solution across {x . nu = lam} and assemble U = u_lam - u.

    One :func:`_bilinear` gather reads every field at the reflected
    points: the values, the centered-difference derivatives, the
    validity mask and the discrete operator; when the reflection is grid
    aligned the weights collapse and the pairing is exact.  One column
    gather of :attr:`_SolutionData.stack` reads the same fields at the
    cap nodes, those with x . nu < lam + 1e-9 h, so nodes on the plane
    are kept.  Reflected Hessians are conjugated with the reflection
    matrix, in closed form per entry, rather than re-differenced, so they
    inherit the interior accuracy of the unreflected fields.  By
    reflection invariance of the determinant, the reflected discrete
    operator is the unreflected one interpolated at the reflected
    points, where ``op_ok`` finds it finite.
    """
    data = _data if _data is not None else _SolutionData(solution)
    g = solution.grid
    nu = _as_unit(nu, 2)
    lam = float(lam)
    idx = np.nonzero(g.node_xy @ nu < lam + g.h * 1e-9)[0]
    xy = g.node_xy[idx]
    refl = reflect_point(xy, nu, lam)

    # a reflection inside the domain lies in the padded box; derivatives
    # need the whole reflected cell and the node's own stencil valid
    inside = g.domain.contains(refl)
    n_exited = int(np.sum(~inside))
    m = solution.m
    at_refl = _bilinear(g, data.stack, refl[inside], data.n_field)
    keep = np.isfinite(at_refl[6 * m])
    idx, xy, refl = idx[inside][keep], xy[inside][keep], refl[inside][keep]
    at_refl = at_refl[:, keep]
    at_node = np.take(data.stack, data.node_rows[idx], axis=1)
    deriv_ok = (at_node[6 * m] == 1.0) & (at_refl[6 * m] > 1.0 - 1e-12)

    # (6, m, K): E, ux, uy, uxx, uyy, uxy of every component
    K = len(idx)
    f_node = at_node[:6 * m].reshape(m, 6, K).transpose(1, 0, 2)
    f_refl = at_refl[:6 * m].reshape(m, 6, K).transpose(1, 0, 2)
    Q = np.eye(2) - 2.0 * np.outer(nu, nu)
    u, u_lam = f_node[0], f_refl[0]
    grad_u = np.stack([f_node[1], f_node[2]], axis=-1)
    grad_u_lam = np.stack([f_refl[1], f_refl[2]], axis=-1) @ Q.T
    hess_u = _mat2(f_node[3], f_node[5], f_node[5], f_node[4])
    hess_u_lam = _mat2(*_reflect_hessian(Q, f_refl[3], f_refl[5], f_refl[4]))

    # det D^2 u_lam(x) = det(Q D^2 u(x_lam) Q) = det D^2 u(x_lam)
    det_op = at_node[6 * m + 1:]
    det_op_lam = at_refl[6 * m + 1:]
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


# Gauss-Legendre nodes of the mean-value integral; the integrand is linear
# in t for 2x2 Hessians, so the rule is exact
_QUAD_ORDER = 4


def linearize(frame, system):
    """Mean-value matrices, Lipschitz coefficients and coupling quotients.

    A^i comes from the Hessian pair (reflected, original) by the
    :data:`_QUAD_ORDER`-node Gauss-Legendre rule, entry by entry; B^i points
    along grad U with the declared gradient Lipschitz constant as length
    (zero where grad U vanishes); c^i is the declared own-component
    constant; d_ij is the difference quotient of f^i along unknown j,
    evaluated at the telescoped argument (components before j reflected,
    j and later unreflected) with step U^j.
    """
    m, K = frame.m, len(frame.node_idx)
    A = np.zeros((m, K, 2, 2))
    B = np.zeros((m, K, 2))
    c = np.zeros(m)
    d = np.zeros((m, m, K))
    flagged = []
    t_nodes, t_weights = _gauss_legendre01(_QUAD_ORDER)
    for i in range(m):
        Ha, Hb = frame.hess_u_lam[i], frame.hess_u[i]
        # sum w_k adj((1 - t_k) Ha + t_k Hb) per entry; a quadrature node
        # whose integrand is not PD flags the node
        a00 = a01 = a10 = a11 = 0.0
        bad = np.zeros(K, dtype=bool)
        for tk, wk in zip(t_nodes, t_weights):
            m00, m01, m10, m11 = ((1.0 - tk) * Ha[:, r, s] + tk * Hb[:, r, s]
                                  for r, s in ((0, 0), (0, 1), (1, 0), (1, 1)))
            a00, a01 = a00 + wk * m11, a01 + wk * -m01
            a10, a11 = a10 + wk * -m10, a11 + wk * m00
            bad |= ~((m00 * m11 - m01 * m10 > 0) & (m00 + m11 > 0))
        A[i] = _mat2(a00, a01, a10, a11)
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
    return LinearizationFields(A=A, B=B, c=c, d=d, quad_order=_QUAD_ORDER,
                               n_flagged=tuple(flagged))


def verify_elliptic_inequality(lin, frame):
    """Audit tr(A dD2U) + B . dU + c U >= sum_j d_ij U_j on the cap.

    Checked at cap nodes with trustworthy derivatives and a finite
    reflected operator (``frame.op_ok``).  The tolerance is 10 h^2 times
    a local determinant scale; nodes breaking the inequality beyond it
    are counted and the worst one is reported.  With no such node the
    report carries ``"verdict": "not-applicable"`` instead of ``passed``.

    The trace term is the determinant difference of the discrete
    wide-stencil operator, ``det_op_lam - det_op``; the two are equal by
    the mean value identity, which acceptance criterion 06 audits on the
    ``lin.A`` of :func:`linearize` to a relative 1e-10.  Both operator
    values come from the one operator field of the solution, so its
    directional resolution bias cancels between a node and its
    reflection, unlike that of raw Hessian determinants.
    """
    g = frame.grid
    ok = frame.deriv_ok & frame.op_ok
    report = {"tolerance_rule": "10*h^2*scale", "h": g.h, "components": [],
              "n_nodes": int(ok.sum()), "total_violations": 0,
              "worst_margin": float("inf"), "worst_xy": None,
              "d_nonpositive": bool(np.all(lin.d[:, :, ok] <= 1e-12))}
    for i in range(frame.m):
        lhs = (frame.det_op_lam[i] - frame.det_op[i]
               + np.einsum("ka,ka->k", lin.B[i], frame.grad_U[i])
               + lin.c[i] * frame.U[i])
        rhs = np.einsum("jk,jk->k", lin.d[i], frame.U)
        scale = np.maximum(1.0, np.maximum(np.abs(_det2(frame.hess_u[i])),
                                           np.abs(_det2(frame.hess_u_lam[i]))))
        tol_node = (10.0 * g.h ** 2) * scale
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
    if ok.any():
        report["passed"] = report["total_violations"] == 0
    else:
        # an audit of no node certifies nothing
        report["verdict"] = "not-applicable"
    return report


# ---------------------------------------------------------------------------
# certificates

def certify_monotonicity(solution, nu, planes, *, _data=None):
    """Directional derivative check: d_nu u < 0 strictly left of the plane.

    Certifies the strict inequality as <= -margin at every interior node
    with x . nu < Lam0 - h, the margin being 10 h^2 times a local
    gradient scale.  Failure is a verdict with a witness, not an error.
    """
    data = _data if _data is not None else _SolutionData(solution)
    g = solution.grid
    nu = _as_unit(nu, 2)
    h = g.h
    out = {"direction": [float(v) for v in nu], "Lam0": float(planes.Lam0),
           "components": [], "passed": True}
    m = solution.m
    at_node = np.take(data.stack, data.node_rows, axis=1)
    ok = (at_node[6 * m] == 1.0) & (g.node_xy @ nu < planes.Lam0 - h)
    for i in range(m):
        ux, uy = at_node[6 * i + 1], at_node[6 * i + 2]
        dnu = ux * nu[0] + uy * nu[1]
        scale = np.maximum(1.0, np.hypot(ux, uy))
        margin = (10.0 * h ** 2) * scale
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


def _domain_symmetric(domain, nu, lam):
    """Check on 512 boundary samples that reflection across the plane maps
    the boundary onto itself: a reflected sample q is on the boundary
    exactly when the ray from the interior point through q leaves the
    domain at q."""
    c = domain.interior_point
    t = np.linspace(0.0, 1.0, 512, endpoint=False)
    q = reflect_point(domain.boundary_param(t), nu, lam)
    return bool(np.all(np.abs(domain.ray_exit(c, q - c) - 1.0) < 1e-7))


def certify_symmetry(solution, nu, Lam0, *, _data=None, _frame=None):
    """Mirror residual across the critical plane, plus disk angular variation.

    Returns a not-applicable verdict when the domain is not symmetric
    about the plane.  The residual floor is the bilinear interpolation
    error, order h^2, and is stated in the report; the tolerance is
    20 h^2 times the largest field magnitude.  On a disk the variation
    over 720 angles on four rings counts as residual too.  ``_frame`` is
    the frame at Lam0 when the caller has already built it.
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
    report["tolerance"] = (20.0 * h ** 2) * scale
    if isinstance(g.domain, Ball):
        c = np.asarray(g.domain.center)
        th = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
        ring = np.stack([np.cos(th), np.sin(th)], axis=-1)
        rings = np.concatenate([c + frac * g.domain.radius * ring
                                for frac in (0.2, 0.4, 0.6, 0.8)])
        vals = _bilinear(g, data.stack, rings, data.n_field)
        variations = []
        for i in range(solution.m):
            E = vals[6 * i].reshape(4, -1)
            variations.append(float(np.max(np.max(E, axis=1) - np.min(E, axis=1))))
        report["angular_variation"] = variations
        resid = max(resid, max(variations))
    report["passed"] = resid <= report["tolerance"]
    return report


def boundary_checks(solution, *, _data=None):
    """Hopf outward derivative, interior Laplacian sign and tube corner checks.

    The normal derivative is a one-sided difference from just inside the
    boundary toward it, at 256 samples of ``boundary_param``.  A sample
    counts only when the point a step s = 2h inward along the normal and
    its two neighbours a step s along the tangent are inside: the discrete
    interior disk of the Hopf lemma, which tube corners lack.  The corner
    check differences the field into the two corners where the first
    lateral plane meets the caps, where the cross derivative taken along
    the inward axis directions must be positive.
    """
    data = _data if _data is not None else _SolutionData(solution)
    g = solution.grid
    domain = g.domain
    h = g.h
    report = {"h": h}
    s = 2.0 * h
    pts = domain.boundary_param(np.linspace(0.0, 1.0, 256, endpoint=False))
    normals = domain.boundary_normal(pts)
    inner = pts - s * normals
    tangents = normals @ np.array([[0.0, 1.0], [-1.0, 0.0]])
    disk = np.all(domain.contains(np.stack([inner, inner + s * tangents,
                                            inner - s * tangents])), axis=0)
    inner_vals = _bilinear(g, data.stack, inner, data.n_field)
    entries = []
    for i in range(solution.m):
        innerv = inner_vals[6 * i]
        keep = disk & np.isfinite(innerv)
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
    m = solution.m
    at_node = np.take(data.stack, data.node_rows, axis=1)
    ok = at_node[6 * m] == 1.0
    for i in range(m):
        lap = at_node[6 * i + 3] + at_node[6 * i + 4]
        lap_entries.append({"component": i + 1,
                            "min_laplacian": float(np.min(lap[ok])),
                            "passed": bool(np.min(lap[ok]) > 0.0)})
    report["laplacian"] = {"components": lap_entries,
                           "passed": all(e["passed"] for e in lap_entries)}
    if isinstance(domain, Tube) and domain.dimension == 2:
        bb = domain.bounding_box()
        x_min, H = bb[0, 0], domain.half_height
        corners = _bilinear(g, data.stack, [[x_min + s, H - s], [x_min + s, -H + s]],
                            data.n_field)
        entries = []
        for i in range(solution.m):
            ci = solution.cs[i]
            # inward one-sided cross differences; boundary faces carry c
            top = float((ci - corners[6 * i, 0]) / s ** 2)
            bot = float((ci - corners[6 * i, 1]) / s ** 2)
            entries.append({"component": i + 1,
                            "corner_top": top, "corner_bottom": bot,
                            "passed": bool(top > 0.0 and bot > 0.0)})
        report["corner"] = {"components": entries,
                            "passed": all(e["passed"] for e in entries)}
    else:
        report["corner"] = {"verdict": "not-applicable"}
    report["passed"] = (report["laplacian"]["passed"]
                        and report["hopf"]["passed"]
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


def lambda_sweep(solution, nu, planes, n_lambdas=16, system=None):
    """Sweep plane positions over (lam0, Lam0] and aggregate all certificates.

    Each position gets a frame, the cap bound U <= 10 h^2 max(1, |u|)
    and (when the system is supplied) a linearization with the
    elliptic-inequality audit.  The final position is exactly Lam0, and
    its frame doubles as the symmetry certificate's.

    Everything that does not depend on the plane position is computed
    once per call and shared by every frame, the symmetry frame, the
    monotonicity certificate and the boundary checks: the stacked table
    of the derivative fields of the ghost-extended arrays, the validity
    mask and the discrete operator of the unreflected fields, which
    gives every frame its reflected operator.
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
            cap_tol = (10.0 * h ** 2) * scale
            u_max = float(np.max(frame.U))
            entry["U_max"] = u_max
            entry["cap_nonpositive"] = u_max <= cap_tol
            if system is not None and frame.deriv_ok.any():
                lin = linearize(frame, system)
                ei = verify_elliptic_inequality(lin, frame)
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
