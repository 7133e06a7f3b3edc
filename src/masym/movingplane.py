"""Moving-plane diagnostics on solved determinant-equation fields.

Given a grid solution, a direction nu and a plane position lambda, the
frame machinery reflects the fields across the plane, forms the
difference U = u_reflected - u on the cap, and linearizes the
determinant difference through the matrix mean value identity

    det(H_refl) - det(H) = tr(A (H_refl - H)),
    A = integral_0^1 adj((1-t) H_refl + t H) dt,

whose integrand is linear in t for 2x2 Hessians, so A is the adjugate
of (H_refl + H) / 2 in closed form.  The positive definite 2x2 matrices
form a convex cone, so the integrand is positive definite for every t
exactly when H_refl and H both are; a node where one of them is not is
flagged.  On top of the frames sit certificates: cap monotonicity,
mirror symmetry, a Hopf boundary derivative check, tube corner
cross-derivatives and an audit of the elliptic inequality satisfied by U.

Every field a frame or certificate reads off the grid sits in the one
stacked table of the solution, :attr:`GridSolution.stack`, and one
bilinear kernel reads them all at a set of points with a single gather
of the cell corners.  The 2x2 Hessian algebra of a frame (the reflection
Q H Q, the mean-value matrix and its positivity flag) runs in closed
form on per-entry arrays.

A sweep groups its consecutive plane positions into batches of at most
as many cap nodes as the last, largest cap, at Lam0, and builds one
frame and one audit per batch; the batches run on a thread pool with
one worker per available core.  The audit forms no mean-value matrices,
which no sweep entry reads, and each position's figures (cap bound,
violations, least margin, flag counts) are reductions over its segment
of the batch's nodes, one ``reduceat`` call per figure for every position
at once.  Every per-node operation is the one a single position gets, so
the reports do not depend on the batches or on the number of workers.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .domains import reflect_point, _as_unit, Ball, Tube
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

def _det2(M):
    """Determinants of a stack of 2x2 matrices in closed form."""
    return M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]


def _pd(M):
    """Where each 2x2 matrix of a stack is positive definite: det > 0 and trace > 0."""
    return (_det2(M) > 0) & (M[..., 0, 0] + M[..., 1, 1] > 0)


def _mat2(a00, a01, a10, a11):
    """Stack entry arrays of equal shape into (..., 2, 2) matrices."""
    out = np.empty(np.shape(a00) + (2, 2))
    out[..., 0, 0], out[..., 0, 1] = a00, a01
    out[..., 1, 0], out[..., 1, 1] = a10, a11
    return out


def _reflect_hessian(Q, H, out):
    """Q H Q into ``out``, as (Q H) Q, entry by entry: ``H[r][c]`` and
    ``out[:, r, c]`` are the (m, K) arrays of entry (r, c)."""
    # P[r][c] = Q[r, 0] H[0][c] + Q[r, 1] H[1][c]
    P = [[Q[r, 0] * H[0][c] + Q[r, 1] * H[1][c] for c in (0, 1)] for r in (0, 1)]
    # out[r, c] = P[r][0] Q[0, c] + P[r][1] Q[1, c]
    for r in (0, 1):
        for c in (0, 1):
            np.add(P[r][0] * Q[0, c], P[r][1] * Q[1, c], out=out[:, r, c])


# ---------------------------------------------------------------------------
# interpolation

def _bilinear(grid, stack, pts):
    """(rows of ``stack``, len(pts)) bilinear interpolants at ``pts``.

    Each point's cell comes from one ``searchsorted`` per axis and its
    four corners are gathered once for every field.  Every row is
    scipy's 2-D ``RegularGridInterpolator(method="linear",
    fill_value=nan)`` of that row to the bit, corner values multiplied
    as (v * wx) * wy: NaN outside the grid, and NaN spreads from every
    corner, zero weights included.
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
    # the clipped cells keep every corner index in range
    v = np.take(stack, i * ny + j + np.array([[0], [1], [ny], [ny + 1]]), axis=1,
                mode="clip")
    wx = np.stack([1 - tx, 1 - tx, tx, tx])
    wy = np.stack([1 - ty, ty, 1 - ty, ty])
    v *= wx
    v *= wy
    out = 0.0 + v[:, 0]
    out += v[:, 1]
    out += v[:, 2]
    out += v[:, 3]
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
    where gradients and Hessians are trustworthy.  A sweep's frame of
    several plane positions concatenates their caps' nodes in position
    order and holds one ``lam`` and ``n_exited`` per position.
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


_NODE_AXIS_0 = ("node_idx", "xy", "reflected_xy", "deriv_ok", "op_ok")
_NODE_AXIS_1 = ("u", "u_lam", "U", "grad_u", "grad_u_lam", "grad_U", "hess_u", "hess_u_lam",
                "hess_U", "det_op", "det_op_lam")


def _nodes(frame, sel, **changes):
    """``frame`` cut to the nodes ``sel`` selects, a slice giving views."""
    changes.update({name: getattr(frame, name)[sel] for name in _NODE_AXIS_0})
    changes.update({name: getattr(frame, name)[:, sel] for name in _NODE_AXIS_1})
    return replace(frame, **changes)


def _caps(grid, nu, lams):
    """Each plane position's cap: the nodes with x . nu < lam + 1e-9 h, so
    nodes on the plane are kept."""
    s = grid.node_xy @ nu
    return [np.nonzero(s < lam + grid.h * 1e-9)[0] for lam in lams]


def _frames(solution, nu, lams, caps):
    """One frame of the ``caps`` of the plane positions ``lams``.

    Its arrays hold the caps' kept nodes concatenated in position order,
    its ``lam`` and ``n_exited`` one value per position; also returns the
    (P + 1,) node bounds, position k holding nodes bounds[k]:bounds[k + 1].
    See :func:`build_frame`, the frame of one position.
    """
    g = solution.grid
    idxs, refls, n_exited = [], [], []
    for lam, idx in zip(lams, caps):
        refl = reflect_point(g.node_xy[idx], nu, lam)
        # a reflection inside the domain lies in the padded box unless a level
        # set declares a box shorter than {phi < 0}; off the grid box the
        # interpolant is NaN, so those points are dropped before the gather
        inside = g.domain.contains(refl)
        n_exited.append(int(np.count_nonzero(~inside)))
        x, y = refl[:, 0], refl[:, 1]
        inside &= (g.xs[0] <= x) & (x <= g.xs[-1]) & (g.ys[0] <= y) & (y <= g.ys[-1])
        idxs.append(idx[inside])
        refls.append(refl[inside])
    bounds = np.cumsum([0] + [len(idx) for idx in idxs])
    idx, refl = np.concatenate(idxs), np.concatenate(refls)
    m, K = solution.m, len(idx)
    at_refl = _bilinear(g, solution.stack, refl)
    at_node = np.take(solution.stack, solution.node_rows[idx], axis=1)
    # derivatives need the whole reflected cell and the node's own stencil valid
    deriv_ok = (at_node[6 * m] == 1.0) & (at_refl[6 * m] > 1.0 - 1e-12)

    # (m, 6, K): E, ux, uy, uxx, uyy, uxy of every component
    f_node = at_node[:6 * m].reshape(m, 6, K)
    f_refl = at_refl[:6 * m].reshape(m, 6, K)
    Q = np.eye(2) - 2.0 * np.outer(nu, nu)
    u, u_lam = f_node[:, 0], f_refl[:, 0]
    grad_u = np.stack([f_node[:, 1], f_node[:, 2]], axis=-1)
    grad_refl = np.stack([f_refl[:, 1], f_refl[:, 2]], axis=-1)
    # BLAS may round a row by the length of the array it sits in (a one-row
    # product does), so each position's gradients get a product of their own,
    # as in a frame of that position alone
    grad_u_lam = np.concatenate([grad_refl[:, a:b] @ Q.T
                                 for a, b in zip(bounds[:-1], bounds[1:])], axis=1)
    hess = np.empty((3, m, 2, 2, K))
    # entries (0, 0), (0, 1), (1, 0), (1, 1) are the rows uxx, uxy, uxy, uyy
    hess[0, :, 0, 0], hess[0, :, 1, 1] = f_node[:, 3], f_node[:, 4]
    hess[0, :, 0, 1] = hess[0, :, 1, 0] = f_node[:, 5]
    _reflect_hessian(Q, [[f_refl[:, 3], f_refl[:, 5]], [f_refl[:, 5], f_refl[:, 4]]], hess[1])
    np.subtract(hess[1], hess[0], out=hess[2])
    hess_u, hess_u_lam, hess_U = hess.transpose(0, 1, 4, 2, 3)

    # det D^2 u_lam(x) = det(Q D^2 u(x_lam) Q) = det D^2 u(x_lam)
    det_op = at_node[6 * m + 1:]
    det_op_lam = at_refl[6 * m + 1:]
    op_ok = np.all(np.isfinite(det_op_lam), axis=0)

    return MovingPlaneFrame(
        nu=nu, lam=lams, grid=g, node_idx=idx, xy=g.node_xy[idx], reflected_xy=refl,
        deriv_ok=deriv_ok, n_exited=n_exited,
        u=u, u_lam=u_lam, U=u_lam - u,
        grad_u=grad_u, grad_u_lam=grad_u_lam, grad_U=grad_u_lam - grad_u,
        hess_u=hess_u, hess_u_lam=hess_u_lam, hess_U=hess_U,
        det_op=det_op, det_op_lam=det_op_lam, op_ok=op_ok,
    ), bounds


def _position(frame, bounds, k):
    """Position k's frame out of a frame of several positions, as views."""
    return _nodes(frame, slice(bounds[k], bounds[k + 1]), lam=float(frame.lam[k]),
                  n_exited=frame.n_exited[k])


def build_frame(solution, nu, lam):
    """Reflect the solution across {x . nu = lam} and assemble U = u_lam - u.

    One :func:`_bilinear` gather reads every field at the reflected
    points: the values, the centered-difference derivatives, the
    validity mask and the discrete operator; when the reflection is grid
    aligned the weights collapse and the pairing is exact.  One column
    gather of :attr:`GridSolution.stack` reads the same fields at the
    cap nodes, those with x . nu < lam + 1e-9 h, so nodes on the plane
    are kept.  Reflected Hessians are conjugated with the reflection
    matrix, in closed form per entry, rather than re-differenced, so they
    inherit the interior accuracy of the unreflected fields.  By
    reflection invariance of the determinant, the reflected discrete
    operator is the unreflected one interpolated at the reflected
    points, where ``op_ok`` finds it finite.

    The three Hessian stacks are (m, K, 2, 2) views of one entry-major
    (3, m, 2, 2, K) array, so each entry of every node is one contiguous
    row for :func:`linearize` and :func:`verify_elliptic_inequality`.
    :func:`lambda_sweep` builds the frames of several positions at once
    with the same code, and this is the frame of one.
    """
    nu = _as_unit(nu, 2)
    lams = [float(lam)]
    return _position(*_frames(solution, nu, lams, _caps(solution.grid, nu, lams)), 0)


# ---------------------------------------------------------------------------
# linearization

@dataclass
class LinearizationFields:
    """Coefficients of the elliptic inequality satisfied by U on the cap."""

    A: np.ndarray                 # (m, K, 2, 2) mean-value matrices adj((H_lam + H) / 2)
    B: np.ndarray                 # (m, K, 2) gradient coefficient
    c: np.ndarray                 # (m,) own-component Lipschitz constant
    d: np.ndarray                 # (m, m, K) coupling difference quotients
    nonpd: np.ndarray             # (m, K) deriv_ok nodes where H_lam or H is not PD

    @property
    def n_flagged(self):
        """Per component, the number of flagged (``nonpd``) nodes."""
        return tuple(int(n) for n in self.nonpd.sum(axis=1))


def linearize(frame, system):
    """Mean-value matrices, Lipschitz coefficients and coupling quotients.

    A^i is the integral of adj((1 - t) H_lam + t H) over t in [0, 1].
    The adjugate of a 2x2 matrix is linear in its entries, so the
    integral is adj((H_lam + H) / 2) in closed form, at every node.  The
    integrand runs along the segment from H_lam to H, and the positive
    definite 2x2 matrices form a convex cone, so it is positive definite
    for every t exactly when both ends are; a node with derivatives
    where one end is not is flagged and counted.  B^i points
    along grad U with the declared gradient Lipschitz constant as length
    (zero where grad U vanishes); c^i is the declared own-component
    constant; d_ij is the difference quotient of f^i along unknown j,
    evaluated at the telescoped argument (components before j reflected,
    j and later unreflected) with step U^j.
    """
    Ha, Hb = frame.hess_u_lam, frame.hess_u
    M = 0.5 * (Ha + Hb)
    A = _mat2(M[..., 1, 1], -M[..., 0, 1], -M[..., 1, 0], M[..., 0, 0])
    hp, c = _constants(system.lipschitz_p), _constants(system.lipschitz_z)
    return LinearizationFields(A=A, B=_gradient_coefficient(frame, hp), c=c,
                               d=_quotients(frame, system), nonpd=_nonpd(frame))


def _constants(values):
    """Declared Lipschitz constants as an (m,) array, 0 for a null entry."""
    return np.array([0.0 if v is None else float(v) for v in values])


def _nonpd(frame):
    """(m, K) deriv_ok nodes where H_lam or H is not positive definite."""
    return ~(_pd(frame.hess_u_lam) & _pd(frame.hess_u)) & frame.deriv_ok


def _gradient_coefficient(frame, hp):
    """(m, K, 2) B: grad U scaled to length ``hp``, zero where grad U vanishes."""
    # |grad U| in the operations of np.linalg.norm along the last axis
    sq = frame.grad_U * frame.grad_U
    norm = np.sqrt(sq[..., 0] + sq[..., 1])
    B = np.zeros(frame.grad_U.shape)
    np.divide(hp[:, None, None] * frame.grad_U, norm[..., None], out=B,
              where=norm[..., None] > 0)
    return B


def _quotients(frame, system):
    """(m, m, K) coupling quotients d_ij, one source evaluation per (i, j)."""
    m = frame.m
    # along unknown j, components before j see the reflected values, j and
    # later the originals
    zs = [np.stack([frame.u_lam[k] if k < j else frame.u[k] for k in range(m)], axis=-1)
          for j in range(m)]
    d = np.zeros((m, m, len(frame.node_idx)))
    for i in range(m):
        for j in range(m):
            d[i, j] = rhs_d_ij(system, i + 1, j + 1, frame.xy, zs[j], frame.grad_u_lam[i],
                               frame.U[j])
    return d


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
    return _ei_report(frame, lin.d, *_ei_margins(frame, lin.d, lin.B, lin.c))


def _ei_margins(frame, d, B, c):
    """(m, K) margins tr(A dD2U) + B . dU + c U - sum_j d_ij U_j and their
    tolerances 10 h^2 max(|det H|, |det H_lam|), node by node.  A component
    whose ``B[i]`` or ``c[i]`` is None leaves that term out."""
    scale = np.maximum(np.abs(_det2(frame.hess_u)), np.abs(_det2(frame.hess_u_lam)))
    tol_node = (10.0 * frame.grid.h ** 2) * scale
    margin = frame.det_op_lam - frame.det_op
    for i in range(frame.m):
        if B[i] is not None:
            margin[i] += np.einsum("ka,ka->k", B[i], frame.grad_U[i])
        if c[i] is not None:
            margin[i] += c[i] * frame.U[i]
        margin[i] -= np.einsum("jk,jk->k", d[i], frame.U)
    return margin, tol_node


def _sweep_margins(frame, system):
    """The sweep's audit of ``frame``: :func:`_ei_margins` and the flags of
    :func:`linearize`, less what the sweep's report never reads.

    It forms no mean-value matrix A, and it leaves out the B . grad U and
    c U terms of a component whose declared constant is 0.  With finite
    grad U and U such a term is a signed zero, and adding it leaves the
    margin as it was, since the margin is not -0.0 there: det_op_lam is a
    bilinear sum started at +0.0, so det_op_lam - det_op is not -0.0, and
    neither is its sum with a term.
    """
    hp, c = _constants(system.lipschitz_p), _constants(system.lipschitz_z)
    B = _gradient_coefficient(frame, hp) if hp.any() else None
    margin, tol_node = _ei_margins(frame, _quotients(frame, system),
                                   [B[i] if hp[i] else None for i in range(frame.m)],
                                   [c[i] if c[i] else None for i in range(frame.m)])
    return margin, tol_node, _nonpd(frame)


def _ei_report(frame, d, margin, tol_node):
    """The audit report of one plane position from its nodes' quotients
    ``d`` and :func:`_ei_margins`."""
    g = frame.grid
    ok = frame.deriv_ok & frame.op_ok
    any_ok = bool(ok.any())
    report = {"tolerance_rule": "10*h^2*scale", "h": g.h, "components": [],
              "n_nodes": int(np.count_nonzero(ok)), "total_violations": 0,
              "worst_margin": float("inf"), "worst_xy": None,
              "d_nonpositive": bool(np.all((d <= 1e-12) | ~ok))}
    bad = ok & (margin < -tol_node)
    if any_ok:
        worst = np.argmin(np.where(ok, margin, np.inf), axis=1)
    for i in range(frame.m):
        entry = {"component": i + 1, "violations": int(np.count_nonzero(bad[i]))}
        if any_ok:
            k = int(worst[i])
            entry["worst_margin"] = float(margin[i, k])
            entry["worst_xy"] = [float(v) for v in frame.xy[k]]
            if margin[i, k] < report["worst_margin"]:
                report["worst_margin"] = float(margin[i, k])
                report["worst_xy"] = entry["worst_xy"]
        report["components"].append(entry)
        report["total_violations"] += entry["violations"]
    if not np.isfinite(report["worst_margin"]):
        report["worst_margin"] = 0.0
    if any_ok:
        report["passed"] = report["total_violations"] == 0
    else:
        # an audit of no node certifies nothing
        report["verdict"] = "not-applicable"
    return report


# ---------------------------------------------------------------------------
# certificates

def certify_monotonicity(solution, nu, planes):
    """Directional derivative check: d_nu u < 0 strictly left of the plane.

    Certifies the strict inequality as <= -margin at every interior node
    with x . nu < Lam0 - h, the margin being 10 h^2 |grad u| at the node,
    so a node where d_nu u = 0 fails.  Failure is a verdict with a
    witness, not an error.  With no node to check the report carries
    ``"verdict": "not-applicable"`` instead of ``passed``.
    """
    g = solution.grid
    nu = _as_unit(nu, 2)
    h = g.h
    out = {"direction": [float(v) for v in nu], "Lam0": float(planes.Lam0),
           "components": []}
    m = solution.m
    # gather only the rows read: the validity mask, ux and uy
    stack, cols = solution.stack, solution.node_rows
    ok = (np.take(stack[6 * m], cols) == 1.0) & (g.node_xy @ nu < planes.Lam0 - h)
    for i in range(m):
        ux, uy = np.take(stack[6 * i + 1], cols), np.take(stack[6 * i + 2], cols)
        dnu = ux * nu[0] + uy * nu[1]
        viol = ok & (dnu >= -(10.0 * h ** 2) * np.hypot(ux, uy))
        entry = {"component": i + 1, "n_checked": int(ok.sum()),
                 "violations": int(viol.sum())}
        if ok.any():
            k = int(np.argmax(np.where(ok, dnu, -np.inf)))
            entry["worst_value"] = float(dnu[k])
            entry["worst_xy"] = [float(v) for v in g.node_xy[k]]
        out["components"].append(entry)
    if ok.any():
        out["passed"] = all(e["violations"] == 0 for e in out["components"])
    else:
        # an audit of no node certifies nothing
        out["verdict"] = "not-applicable"
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


def certify_symmetry(solution, nu, Lam0, *, _frame=None):
    """Mirror residual across the critical plane, plus disk angular variation.

    Returns a not-applicable verdict when the domain is not symmetric
    about the plane.  The residual floor is the bilinear interpolation
    error, order h^2, and is stated in the report; the tolerance is
    20 h^2 times the largest |u_i - c_i|.  On a disk the variation
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
    frame = _frame if _frame is not None else build_frame(solution, nu, Lam0)
    resid = float(np.max(np.abs(frame.U))) if not frame.empty else 0.0
    report["mirror_residual"] = resid
    report["tolerance"] = (20.0 * h ** 2) * max(solution.amplitude)
    if isinstance(g.domain, Ball):
        c = np.asarray(g.domain.center)
        th = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
        ring = np.stack([np.cos(th), np.sin(th)], axis=-1)
        rings = np.concatenate([c + frac * g.domain.radius * ring
                                for frac in (0.2, 0.4, 0.6, 0.8)])
        # the E rows only
        vals = _bilinear(g, solution.stack[:6 * solution.m:6], rings)
        variations = []
        for i in range(solution.m):
            E = vals[i].reshape(4, -1)
            variations.append(float(np.max(np.max(E, axis=1) - np.min(E, axis=1))))
        report["angular_variation"] = variations
        resid = max(resid, max(variations))
    report["passed"] = resid <= report["tolerance"]
    return report


def boundary_checks(solution):
    """Hopf outward derivative, interior Laplacian sign and tube corner checks.

    The normal derivative is a one-sided difference from just inside the
    boundary toward it, at 256 samples of ``boundary_param``.  A sample
    counts only when the point a step s = 2h inward along the normal and
    its two neighbours a step s along the tangent are inside: the discrete
    interior disk of the Hopf lemma, which tube corners lack; the least
    derivative must exceed 10 h^2 max |u_i - c_i|.  The corner
    check differences the field into the two corners where the first
    lateral plane meets the caps, where the cross derivative taken along
    the inward axis directions must be positive.
    """
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
    # the E rows only, here and at the tube corners
    E_rows = solution.stack[:6 * solution.m:6]
    inner_vals = _bilinear(g, E_rows, inner)
    entries = []
    for i in range(solution.m):
        innerv = inner_vals[i]
        keep = disk & np.isfinite(innerv)
        dn = (solution.cs[i] - innerv[keep]) / s
        entries.append({
            "component": i + 1,
            "min_normal_derivative": float(np.min(dn)) if keep.any() else None,
            "passed": bool(keep.any() and np.min(dn) > 10.0 * h ** 2 * solution.amplitude[i]),
        })
    # an audit with nothing to check has a null minimum and does not pass
    mins = [e["min_normal_derivative"] for e in entries]
    report["hopf"] = {"components": entries,
                      "min": None if None in mins else min(mins),
                      "passed": all(e["passed"] for e in entries)}
    lap_entries = []
    m = solution.m
    # gather only the rows read: the validity mask, uxx and uyy
    stack, cols = solution.stack, solution.node_rows
    ok = np.take(stack[6 * m], cols) == 1.0
    for i in range(m):
        lap = (np.take(stack[6 * i + 3], cols) + np.take(stack[6 * i + 4], cols))[ok]
        lap_entries.append({"component": i + 1,
                            "min_laplacian": float(np.min(lap)) if ok.any() else None,
                            "passed": bool(ok.any() and np.min(lap) > 0.0)})
    report["laplacian"] = {"components": lap_entries,
                           "passed": all(e["passed"] for e in lap_entries)}
    if isinstance(domain, Tube) and domain.dimension == 2:
        bb = domain.bounding_box()
        x_min, H = bb[0, 0], domain.half_height
        corners = _bilinear(g, E_rows, [[x_min + s, H - s], [x_min + s, -H + s]])
        entries = []
        for i in range(solution.m):
            ci = solution.cs[i]
            # inward one-sided cross differences; boundary faces carry c
            top = float((ci - corners[i, 0]) / s ** 2)
            bot = float((ci - corners[i, 1]) / s ** 2)
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
        return asdict(self)


def _available_cores():
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _batches(sizes):
    """(start, stop) ranges of consecutive positions, each holding at most as
    many cap nodes as the last cap, the largest of nested caps; a cap larger
    than that is a batch of its own."""
    out, start, total = [], 0, 0
    for k, n in enumerate(sizes):
        if k > start and total + n > sizes[-1]:
            out.append((start, k))
            start, total = k, 0
        total += n
    out.append((start, len(sizes)))
    return out


def _sweep_batch(solution, nu, lams, caps, system, cap_tol, keep_frame):
    """The sweep entries of consecutive plane positions from one frame.

    One :func:`_sweep_margins` serves every position whose cap has a node
    with valid derivatives, and each position's figures are reductions
    over its segment of the frame's nodes, one ``reduceat`` per figure
    for all positions.  Returns the entries and, with ``keep_frame``, the
    last position's frame.
    """
    frame, bounds = _frames(solution, nu, lams, caps)
    n_nodes = np.diff(bounds)
    # reduceat reads an empty segment as the element at its start, so only
    # the positions with nodes take part: their starts increase strictly
    full = n_nodes > 0
    u_max, audited = np.zeros(len(lams)), np.zeros(len(lams), dtype=bool)
    u_max[full] = np.maximum.reduceat(np.max(frame.U, axis=0), bounds[:-1][full])
    audited[full] = np.logical_or.reduceat(frame.deriv_ok, bounds[:-1][full])
    if audited.any():
        # the sources are evaluated on the audited caps only, as one position
        # at a time evaluates them
        sub = frame if audited.all() else _nodes(frame, np.repeat(audited, n_nodes))
        margin, tol_node, nonpd = _sweep_margins(sub, system)
        starts = (np.cumsum(n_nodes * audited) - n_nodes)[audited]
        ok = sub.deriv_ok & sub.op_ok
        violations, worst = np.zeros(len(lams), dtype=int), np.zeros(len(lams))
        flagged = np.zeros((frame.m, len(lams)), dtype=int)
        violations[audited] = np.add.reduceat(ok & (margin < -tol_node), starts,
                                              axis=1).sum(axis=0)
        # as _ei_report finds it: per component the least margin of the
        # nodes audited, NaN if one is NaN; across components a NaN is passed
        # over, and a position with no finite least margin reports 0
        least = np.minimum.reduceat(np.where(ok, margin, np.inf), starts, axis=1)
        worst[audited] = np.fmin.reduce(least, axis=0, initial=np.inf)
        worst[~np.isfinite(worst)] = 0.0
        flagged[:, audited] = np.add.reduceat(nonpd, starts, axis=1)
    entries = []
    for k, lam in enumerate(lams):
        entry = {"lambda": float(lam), "n_nodes": int(n_nodes[k]),
                 "n_exited": frame.n_exited[k]}
        if not full[k]:
            entry["U_max"] = None
            entry["cap_nonpositive"] = True
        else:
            entry["U_max"] = float(u_max[k])
            entry["cap_nonpositive"] = entry["U_max"] <= cap_tol
            if audited[k]:
                entry["ei_violations"] = int(violations[k])
                entry["ei_worst_margin"] = float(worst[k])
                entry["flagged_nonpd"] = [int(n) for n in flagged[:, k]]
        entries.append(entry)
    return entries, _position(frame, bounds, len(lams) - 1) if keep_frame else None


def lambda_sweep(solution, nu, planes, n_lambdas=16, *, system):
    """Sweep plane positions over (lam0, Lam0] and aggregate all certificates.

    Each position gets a frame, the cap bound U <= 10 h^2 max_i max |u_i - c_i|
    and, where the cap has a node with valid derivatives, a linearization
    against ``system`` with the elliptic-inequality audit.  The final
    position is exactly Lam0, and its frame doubles as the symmetry
    certificate's.  Every frame and certificate reads the solution's
    :attr:`GridSolution.stack`, built on its first use.

    Consecutive positions run in batches of at most as many cap nodes as
    the Lam0 cap, one frame and one audit per batch (see
    :func:`_sweep_batch`), on a thread pool with one worker per available
    core; so at most that many Lam0-sized frames are in memory at once.  The report does not depend
    on the batches or on the number of workers: every per-node operation
    is the one a single position gets.  An error in a batch reaches the
    caller as it was raised, the first in position order, and each batch
    runs in a copy of the caller's context, so its ``np.errstate`` holds.
    """
    if n_lambdas < 2:
        raise ValueError("need at least two plane positions")
    g = solution.grid
    nu = _as_unit(nu, 2)
    h = g.h
    lams = planes.lam0 + (planes.Lam0 - planes.lam0) * (
        np.arange(1, n_lambdas + 1) / n_lambdas)
    lams[-1] = planes.Lam0
    cap_tol = (10.0 * h ** 2) * max(solution.amplitude)
    caps = _caps(g, nu, lams)
    batches = _batches([len(cap) for cap in caps])
    # built before the workers share them: a cached_property takes no lock,
    # and an overflowing stack raises here
    solution.stack, solution.node_rows
    with ThreadPoolExecutor(min(_available_cores(), len(batches))) as pool:
        jobs = [pool.submit(contextvars.copy_context().run, _sweep_batch, solution, nu,
                            lams[a:b], caps[a:b], system, cap_tol, b == n_lambdas)
                for a, b in batches]
        try:
            results = [job.result() for job in jobs]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    entries = [entry for batch_entries, _ in results for entry in batch_entries]
    frame = results[-1][1]
    total_viol = sum(entry.get("ei_violations", 0) for entry in entries)
    all_ok = all(entry["cap_nonpositive"] for entry in entries)
    mono = certify_monotonicity(solution, nu, planes)
    sym = certify_symmetry(solution, nu, planes.Lam0, _frame=frame)
    bnd = boundary_checks(solution)
    passed = (all_ok and total_viol == 0 and mono.get("passed", True)
              and sym.get("passed", True) and bnd["passed"])
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
