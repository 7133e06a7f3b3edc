"""Moving-plane diagnostics on solved determinant-equation fields.

Given a grid solution, a direction nu and a plane position lambda, the
fields are reflected across the plane and U = u_reflected - u is formed
on the cap.  Through the matrix mean value identity

    det(H_refl) - det(H) = tr(A (H_refl - H)),
    A = integral_0^1 adj((1-t) H_refl + t H) dt,

U satisfies a linear elliptic inequality, which one per-node audit,
:func:`_ei_nodes`, checks.  It reads the trace term as the difference of
the discrete operator at a node's reflection and at the node,
``det_op_lam - det_op``, and forms no A; the tests check the identity on
A = adj((H_refl + H) / 2), its closed form, as the integrand is linear
in t for 2x2 Hessians.  The positive definite 2x2 matrices form a convex
cone, so the integrand is positive definite for every t exactly when
H_refl and H both are; a node where one of them is not is flagged.  On
top of the audit sit certificates: cap monotonicity, mirror symmetry, a
Hopf boundary derivative check and tube corner cross-derivatives.

Every field a frame or certificate reads off the grid sits in the one
stacked table of the solution, :attr:`GridSolution.stack`, and one
bilinear kernel reads them all at a set of points, one gather of every
field per cell corner.  The table is finite, and its mask row alone marks
where a value is trusted: the audit takes a cap node whose own mask is 1
and whose reflection reads a mask above 1 - 1e-12, and every corner of
such a reflection's cell is an interior node.  One cap reader serves a
frame, a sweep batch and the symmetry certificate: it finds the caps of
some plane positions, pairs each cap node with its reflection, keeps the
nodes whose reflection stays in the domain, and reads the stack rows it
is given at the nodes and at their reflections.  Along an axis direction,
one with an entry exactly 0, at plane positions that map the grid lines
of the caps onto grid lines, every reflection is a node.  The reader then
reflects only the grid's coordinates, once per position, pairs each cap
node with its mirror node by index, tests the mirror against the domain
by a lookup in :attr:`StencilGrid.inside`, and reads its rows by one
gather plus +0.0: the bits of the bilinear read, whose other three
corners weigh 0.  Any other batch reflects every cap node in one pass and
reads the bilinear kernel.  A reflection Q changes neither the
determinant nor the trace of a Hessian, so the audit reads both off the
interpolated Hessian, and forms no Q: Q p = p - 2 (p . nu) nu is written
entry-wise.

One plane position is read into a frame, the stack rows at its cap
nodes and their reflections, and :func:`linearize` runs the audit on
them.  A sweep packs its consecutive plane positions greedily into
batches of at most as many cap nodes as the grid has nodes, which no cap
exceeds; each batch finds its own caps and runs the audit straight on
the stack rows it reads, building no frame: the values, Hessians, mask
and operator rows, and the gradient rows only when the system reads p or
declares a gradient Lipschitz constant.  Each position's figures (cap
bound, violations, least margin, flag counts) are reductions over its
segment of the batch's nodes, one ``reduceat`` call per figure for every
position at once.  The batches, and one more task that calls the public
certificates, run on a long-lived thread pool with one worker per
available core.  The boundary checks and the disk rings of the symmetry
certificate depend on neither nu nor lambda, so they run once per
solution and are kept, weakly, with it.  Reflections are entry-wise, not
matrix products whose rounding may depend on the array's length, so the
reports do not depend on the batches or on the number of workers.
"""

from __future__ import annotations

import contextvars
import copy
import os
import weakref
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass

import numpy as np

from .domains import reflect_point, _as_unit, Ball, Ellipse, Tube
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
# interpolation and the stack's rows
#
# GridSolution.stack holds, for m components, rows 4i..4i+3 = E, uxx, uyy,
# uxy of component i, row 4m the validity mask, rows 4m+1..5m the operator
# and rows 5m+1+2i, 5m+2+2i = ux, uy of component i.

def _bilinear(grid, stack, pts):
    """(rows of ``stack``, len(pts)) bilinear interpolants at ``pts``.

    Each point's cell comes from one ``searchsorted`` per axis, and the
    cell's corners are read one at a time, each a (rows, P) gather of
    every field into one reused buffer that is weighted and added to the
    output; so the working set is two (rows, P) arrays, not one per
    corner.  Every row is scipy's 2-D ``RegularGridInterpolator(
    method="linear", fill_value=nan)`` of that row to the bit, corner
    values multiplied as (v * wx) * wy and summed from +0.0 in corner
    order: NaN outside the grid, and NaN spreads from every corner, zero
    weights included.  A point off the grid, a NaN or infinite
    coordinate included, is read at the grid's first node and then set
    to NaN, so no infinite weight meets a zero.
    """
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    xs, ys = grid.xs, grid.ys
    x, y = pts[:, 0], pts[:, 1]
    off = ~((xs[0] <= x) & (x <= xs[-1]) & (ys[0] <= y) & (y <= ys[-1]))
    if off.any():
        x, y = np.where(off, xs[0], x), np.where(off, ys[0], y)
    i = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(xs) - 2)
    j = np.clip(np.searchsorted(ys, y, side="right") - 1, 0, len(ys) - 2)
    xi, yj = xs[i], ys[j]
    ny = len(ys)
    tx = (x - xi) / (xs[i + 1] - xi)
    ty = (y - yj) / (ys[j + 1] - yj)
    sx, sy = 1 - tx, 1 - ty
    # corners (i, j), (i, j+1), (i+1, j), (i+1, j+1); the clipped cells keep
    # every corner index in range
    base = i * ny + j
    out = np.take(stack, base, axis=1, mode="clip")
    out *= sx
    out *= sy
    out += 0.0
    v = np.empty_like(out)
    for offset, wx, wy in ((1, sx, ty), (ny, tx, sy), (ny + 1, tx, ty)):
        np.take(stack, base + offset, axis=1, out=v, mode="clip")
        v *= wx
        v *= wy
        out += v
    if off.any():
        out[:, off] = np.nan
    return out


def _det_posdef(rows, m):
    """(m, K) determinants of the Hessians in the (rows, K) values of the
    stack's rows, and where they are positive definite: det, trace > 0."""
    uxx, uyy, uxy = rows[1:4 * m:4], rows[2:4 * m:4], rows[3:4 * m:4]
    det = uxx * uyy - uxy * uxy
    return det, (det > 0) & (uxx + uyy > 0)


def _in_cap(s, lam, h):
    """Which nodes, given by their projections s = x . nu, lie in the cap of
    the plane position lam: x . nu < lam + 1e-9 h, so nodes on the plane
    are kept."""
    return s < lam + h * 1e-9


def _node_test_is_entrywise(domain):
    """Whether ``domain.contains`` is a built-in level computed entry by
    entry, so that :attr:`StencilGrid.inside` answers it at every node.  A
    :class:`SmoothLevelSet` runs user code, which may not be."""
    if type(domain) is Tube:
        return _node_test_is_entrywise(domain.cross_section)
    return type(domain) in (Ball, Ellipse)


def _mirror_columns(grid, nu, lams, idx, pos):
    """The stack columns of the nodes that the cap nodes ``idx`` reflect
    to, each across the plane of its position ``lams[pos]``, or None when
    one of them does not reflect onto a node that starts a grid cell.

    Only an axis direction, one with an entry exactly 0, maps nodes to
    nodes.  :func:`reflect_point` then adds the zero entry times a node's
    other coordinate, a signed zero, to its projection, so a node's
    reflection keeps that coordinate and moves along the axis by an
    amount its own axis coordinate and lambda fix.  So the grid's
    coordinates along the axis are reflected once per position, by
    :func:`reflect_point` itself, and looked up among the grid's; each
    cap node's mirror is then index arithmetic.
    """
    axis = 0 if nu[1] == 0.0 else 1 if nu[0] == 0.0 else None
    if axis is None:
        return None
    coords = (grid.xs, grid.ys)[axis]
    line = grid.points[:, 0] if axis == 0 else grid.points[0]
    mirror = reflect_point(line, nu, np.reshape(lams, (-1, 1)))[..., axis]
    # a node on the last grid line starts no cell; NaN sorts past the end
    k = np.minimum(np.searchsorted(coords, mirror), len(coords) - 2)
    table = np.where(coords[k] == mirror, k, -1)
    ij = np.take(grid.node_ij, idx, axis=0)
    ij[:, axis] = table[pos, ij[:, axis]]
    if (ij[:, axis] < 0).any() or (ij[:, 1 - axis] > (grid.nx, grid.ny)[1 - axis] - 2).any():
        return None
    return ij[:, 0] * grid.ny + ij[:, 1]


def _read_caps(solution, nu, lams, rows):
    """The stack rows numbered by the range ``rows`` on the caps of the
    plane positions ``lams``, one position after another.

    Returns the kept cap nodes, their reflections, the rows at the nodes
    and read at the reflections, the (len(lams) + 1,) bounds of each
    position's nodes, and per position the number of cap nodes whose
    reflection leaves the domain.  A cap node is kept when its reflection
    stays in the domain and on the grid box.  Where every cap node
    reflects onto a node that starts a cell (:func:`_mirror_columns`),
    the reflections are those nodes, the domain test reads
    :attr:`StencilGrid.inside` at them when the domain's test is
    entry-wise, and the rows are read there by one gather plus +0.0.
    Else all caps are reflected in one entry-wise :func:`reflect_point`
    call, each node across its own position's plane, tested against the
    domain and the grid box, and read by one :func:`_bilinear` call.
    Both give the same bits: the stack is finite, so the zero weights of
    a node's other three corners add signed zeros.  A position's nodes
    and reflections do not depend on the positions read with it.  Which
    rows are trusted is the mask row's to say (:func:`_difference`).
    """
    g = solution.grid
    s = g.node_xy @ nu
    caps = [np.nonzero(_in_cap(s, lam, g.h))[0] for lam in lams]
    pos = np.repeat(np.arange(len(lams)), [len(cap) for cap in caps])
    idx = np.concatenate(caps)
    cols = _mirror_columns(g, nu, lams, idx, pos)
    if cols is None:
        refl = reflect_point(np.take(g.node_xy, idx, axis=0), nu, np.take(lams, pos))
        inside = g.domain.contains(refl)
        # a reflection inside the domain lies in the padded box unless a
        # level set declares a box shorter than {phi < 0}; off the grid box
        # the interpolant is NaN, so those points are dropped before the read
        x, y = refl[:, 0], refl[:, 1]
        keep = inside & (g.xs[0] <= x) & (x <= g.xs[-1]) & (g.ys[0] <= y) & (y <= g.ys[-1])
    else:
        refl = np.take(g.points.reshape(-1, 2), cols, axis=0)
        inside = keep = (np.take(g.inside, cols) if _node_test_is_entrywise(g.domain)
                         else g.domain.contains(refl))
    n_exited = np.bincount(np.compress(~inside, pos), minlength=len(lams)).tolist()
    if not keep.all():
        idx, pos, refl = (np.compress(keep, a, axis=0) for a in (idx, pos, refl))
        cols = None if cols is None else np.compress(keep, cols)
    bounds = np.concatenate(([0], np.cumsum(np.bincount(pos, minlength=len(lams)))))
    stack = solution.stack[rows.start:rows.stop:rows.step]
    at_node = np.take(stack, np.take(solution.node_rows, idx), axis=1)
    if cols is None:
        at_refl = _bilinear(g, stack, refl)
    else:
        # the four-corner sum at a node that starts a cell, weights 1, 0, 0, 0
        at_refl = np.take(stack, cols, axis=1)
        at_refl += 0.0
    return idx, refl, at_node, at_refl, bounds, n_exited


# ---------------------------------------------------------------------------
# frames

def _difference(at_node, at_refl, m):
    """U = u_lam - u and the nodes with valid derivatives, from the stack
    rows at cap nodes and at their reflections: those whose own derivative
    stencil and reflected interpolation cell stay clear of the boundary,
    read off the mask row alone."""
    return (at_refl[:4 * m:4] - at_node[:4 * m:4],
            (at_node[4 * m] == 1.0) & (at_refl[4 * m] > 1.0 - 1e-12))


@dataclass
class MovingPlaneFrame:
    """The solution's stack rows on the cap {x . nu <= lam} and at its
    reflection, as :func:`_read_caps` reads them for one plane position.

    Arrays are indexed by the kept cap nodes; ``deriv_ok`` marks the
    subset where both the node's own derivative stencil and the
    reflected interpolation cell stay clear of the boundary, which is
    where gradients and Hessians are trustworthy.
    """

    nu: np.ndarray
    lam: float
    grid: object
    node_idx: np.ndarray          # (K,) indices into the solution's nodes
    reflected_xy: np.ndarray      # (K, 2)
    n_exited: int                 # cap nodes dropped: reflection left the domain
    at_node: np.ndarray           # (7m + 1, K) stack rows at the nodes
    at_refl: np.ndarray           # (7m + 1, K) stack rows interpolated at the reflections

    @property
    def m(self):
        return (len(self.at_node) - 1) // 7

    @property
    def empty(self):
        return len(self.node_idx) == 0

    @property
    def xy(self):
        """(K, 2) the cap nodes."""
        return np.take(self.grid.node_xy, self.node_idx, axis=0)

    @property
    def U(self):
        """(m, K) U = u_lam - u."""
        return _difference(self.at_node, self.at_refl, self.m)[0]

    @property
    def deriv_ok(self):
        """(K,) where gradients and Hessians are trustworthy."""
        return _difference(self.at_node, self.at_refl, self.m)[1]


def build_frame(solution, nu, lam):
    """Reflect the solution across {x . nu = lam}.

    :func:`_read_caps` reads every row of the stack at the cap nodes,
    those with x . nu < lam + 1e-9 h, so nodes on the plane are kept,
    and at their reflections: the values, the centered-difference
    derivatives, the validity mask and the discrete operator; along an
    axis, at a plane position that maps grid lines onto grid lines, the
    reflections are nodes and the pairing is exact.  :func:`lambda_sweep`
    reads the same rows for many positions at once without building
    frames.
    """
    nu = _as_unit(nu, 2)
    lam = float(lam)
    idx, refl, at_node, at_refl, _, (n_exited,) = _read_caps(
        solution, nu, [lam], range(7 * solution.m + 1))
    return MovingPlaneFrame(nu=nu, lam=lam, grid=solution.grid, node_idx=idx,
                            reflected_xy=refl, n_exited=n_exited,
                            at_node=at_node, at_refl=at_refl)


# ---------------------------------------------------------------------------
# linearization

@dataclass
class LinearizationFields:
    """The elliptic inequality satisfied by U, node by node on the cap."""

    margin: np.ndarray            # (m, K) tr(A dD2U) + h_p |dU| + c U - sum_j d_ij U_j
    tolerance: np.ndarray         # (m, K) 10 h^2 max(|det H|, |det H_lam|)
    ok: np.ndarray                # (K,) audited: deriv_ok, which the mask row alone decides
    d: np.ndarray                 # (m, m, K) coupling difference quotients
    nonpd: np.ndarray             # (m, K) deriv_ok nodes where H_lam or H is not PD

    @property
    def n_flagged(self):
        """Per component, the number of flagged (``nonpd``) nodes."""
        return tuple(int(n) for n in self.nonpd.sum(axis=1))


def linearize(frame, system):
    """The elliptic-inequality audit of :func:`_ei_nodes` on a frame's cap,
    as a sweep runs it on that plane position."""
    return LinearizationFields(*_ei_nodes(
        frame.grid, frame.nu, system, frame.node_idx, frame.at_node, frame.at_refl,
        *_difference(frame.at_node, frame.at_refl, frame.m), _reads_gradients(system)))


def _constants(values):
    """Declared Lipschitz constants as an (m,) array, 0 for a null entry."""
    return np.array([0.0 if v is None else float(v) for v in values])


def _quotients(system, xy, u, u_lam, U, grad_u_lam):
    """(m, m, K) coupling quotients d_ij, one source evaluation per (i, j).

    ``grad_u_lam`` is the sources' p, None when no source reads it."""
    m = len(u)
    # along unknown j, components before j see the reflected values, j and
    # later the originals
    zs = [np.stack([u_lam[k] if k < j else u[k] for k in range(m)], axis=-1)
          for j in range(m)]
    d = np.zeros((m, m, len(xy)))
    for i in range(m):
        p = None if grad_u_lam is None else grad_u_lam[i]
        for j in range(m):
            d[i, j] = rhs_d_ij(system, i + 1, j + 1, xy, zs[j], p, U[j])
    return d


def _ei_nodes(grid, nu, system, idx, at_node, at_refl, U, deriv_ok, grads):
    """The elliptic inequality tr(A dD2U) + B . dU + c U >= sum_j d_ij U_j at
    the cap nodes ``idx``, from the stack rows at the nodes and at their
    reflections, with the gradient rows when ``grads``.

    Returns the (m, K) margins, lhs - rhs, and their tolerances 10 h^2
    max(|det H|, |det H_lam|); the (K,) audited nodes, ``deriv_ok``, as the
    stack's mask row alone marks the rows it trusts; the (m, m, K) quotients
    d; and the (m, K) ``deriv_ok`` nodes where H_lam or H is not positive
    definite; both read det and trace of H_lam = Q D^2 u(x_lam) Q off the
    interpolated D^2 u(x_lam), as Q changes neither.  The trace term
    tr(A dD2U) is read as the operator difference ``det_op_lam - det_op``,
    which the mean value identity equates with it; both operator values
    come from the one operator field of the solution, so its directional
    resolution bias cancels between a node and its reflection, unlike that
    of raw Hessian determinants.  B^i points along grad U with the declared
    gradient Lipschitz constant h_p^i as length, so B . grad U is read as
    h_p^i |grad U^i| and no B is formed; grad u_lam = Q grad u(x_lam) is
    p - 2 (p . nu) nu for p = grad u(x_lam); c^i is the declared
    own-component constant; d_ij is the difference quotient of f^i along
    unknown j, at the telescoped argument (components before j reflected,
    j and later unreflected) with step U^j.

    The gradient and c U terms of a component whose declared constant is
    0 are left out.  With finite grad U and U such a term is a signed
    zero, and adding it leaves the margin as it was, since the margin is
    not -0.0 there: det_op_lam is a bilinear sum started at +0.0, so
    det_op_lam - det_op is not -0.0, and neither is its sum with a term.
    """
    m = len(U)
    # det(Q M Q) = det M and tr(Q M Q) = tr M, so H_lam is never formed
    (det_H, pd_H), (det_H_lam, pd_H_lam) = _det_posdef(at_node, m), _det_posdef(at_refl, m)
    hp, c = _constants(system.lipschitz_p), _constants(system.lipschitz_z)
    if grads:
        px, py = at_refl[5 * m + 1::2], at_refl[5 * m + 2::2]
        twice = 2.0 * (px * nu[0] + py * nu[1])
        qx, qy = px - twice * nu[0], py - twice * nu[1]
    d = _quotients(system, np.take(grid.node_xy, idx, axis=0), at_node[:4 * m:4],
                   at_refl[:4 * m:4], U, np.stack([qx, qy], axis=-1) if grads else None)
    # det D^2 u_lam(x) = det(Q D^2 u(x_lam) Q) = det D^2 u(x_lam): the
    # reflected operator is the unreflected one at the reflected points
    det_op, det_op_lam = at_node[4 * m + 1:5 * m + 1], at_refl[4 * m + 1:5 * m + 1]
    tolerance = (10.0 * grid.h ** 2) * np.maximum(np.abs(det_H), np.abs(det_H_lam))
    margin = det_op_lam - det_op
    for i in range(m):
        if hp[i]:
            dx, dy = qx[i] - at_node[5 * m + 1 + 2 * i], qy[i] - at_node[5 * m + 2 + 2 * i]
            margin[i] += hp[i] * np.sqrt(dx * dx + dy * dy)
        if c[i]:
            margin[i] += c[i] * U[i]
        margin[i] -= np.einsum("jk,jk->k", d[i], U)
    nonpd = ~(pd_H_lam & pd_H) & deriv_ok
    return margin, tolerance, deriv_ok, d, nonpd


def verify_elliptic_inequality(lin, frame):
    """Audit report of :func:`linearize` on one plane position.

    Checked at the audited cap nodes (``lin.ok``).  The tolerance is 10 h^2
    times a local determinant scale; nodes breaking the inequality beyond
    it are counted and the worst one is reported.  With no such node the
    report carries ``"verdict": "not-applicable"`` instead of ``passed``.
    """
    ok, margin, xy = lin.ok, lin.margin, frame.xy
    any_ok = bool(ok.any())
    report = {"tolerance_rule": "10*h^2*scale", "h": frame.grid.h, "components": [],
              "n_nodes": int(np.count_nonzero(ok)), "total_violations": 0,
              "worst_margin": float("inf"), "worst_xy": None,
              "d_nonpositive": bool(np.all((lin.d <= 1e-12) | ~ok))}
    bad = ok & (margin < -lin.tolerance)
    if any_ok:
        worst = np.argmin(np.where(ok, margin, np.inf), axis=1)
    for i in range(len(margin)):
        entry = {"component": i + 1, "violations": int(np.count_nonzero(bad[i]))}
        if any_ok:
            k = int(worst[i])
            entry["worst_margin"] = float(margin[i, k])
            entry["worst_xy"] = [float(v) for v in xy[k]]
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

    Certifies it as <= -10 h^2 |grad u| at every interior node with
    x . nu < Lam0 - h - 1e-9 h (none on the line x . nu = Lam0 - h, however
    x . nu rounds), so a node where d_nu u = 0 fails.  Failure is a verdict
    with a witness, not an error.  With no node to check the report carries
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
    ok = (np.take(stack[4 * m], cols) == 1.0) & (g.node_xy @ nu < planes.Lam0 - h * (1 + 1e-9))
    for i in range(m):
        ux, uy = np.take(stack[5 * m + 1 + 2 * i], cols), np.take(stack[5 * m + 2 + 2 * i], cols)
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


def certify_symmetry(solution, nu, Lam0):
    """Mirror residual across the critical plane, plus disk angular variation.

    Returns a not-applicable verdict when the domain is not symmetric
    about the plane.  The mirror residual is the largest |U| = |u_lam - u|
    on the cap of Lam0, read from the stack's E rows by :func:`_read_caps`
    (0 for an empty cap).  Its floor is the bilinear interpolation error,
    order h^2, and is stated in the report; the tolerance is 20 h^2 times
    the largest |u_i - c_i|.  On a disk the variation over 720 angles on
    four rings counts as residual too; it depends on no plane, so it is
    read once per solution (:func:`_once`).
    """
    nu = _as_unit(nu, 2)
    g = solution.grid
    h = g.h
    report = {"applicable": True, "Lam0": float(Lam0), "h": h,
              "floor": 2.0 * h ** 2}
    if not _domain_symmetric(g.domain, nu, Lam0):
        report["applicable"] = False
        report["verdict"] = "not-applicable"
        return report
    # the E rows only
    _, _, at_node, at_refl, _, _ = _read_caps(solution, nu, [float(Lam0)],
                                              range(0, 4 * solution.m, 4))
    resid = float(np.max(np.abs(at_refl - at_node))) if at_node.size else 0.0
    report["mirror_residual"] = resid
    report["tolerance"] = (20.0 * h ** 2) * max(solution.amplitude)
    if isinstance(g.domain, Ball):
        variations = _once(solution, "rings", _ring_variations)
        report["angular_variation"] = variations
        resid = max(resid, max(variations))
    report["passed"] = resid <= report["tolerance"]
    return report


def _ring_variations(solution):
    """Per component, the largest variation of E over the 720 angles of each
    of four rings about a disk's centre, at 0.2 to 0.8 of its radius."""
    g = solution.grid
    c = np.asarray(g.domain.center)
    th = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    ring = np.stack([np.cos(th), np.sin(th)], axis=-1)
    rings = np.concatenate([c + frac * g.domain.radius * ring for frac in (0.2, 0.4, 0.6, 0.8)])
    E = _bilinear(g, solution.stack[:4 * solution.m:4], rings).reshape(solution.m, 4, -1)
    return [float(v) for v in np.max(np.max(E, axis=2) - np.min(E, axis=2), axis=1)]


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
    E_rows = solution.stack[:4 * solution.m:4]
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
    ok = np.take(stack[4 * m], cols) == 1.0
    for i in range(m):
        lap = np.compress(ok, np.take(stack[4 * i + 1], cols) + np.take(stack[4 * i + 2], cols))
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


# per solution, the figures that depend on neither nu nor lambda, each
# computed on first use; a solution's entry goes with it
_PER_SOLUTION = weakref.WeakKeyDictionary()


def _once(solution, name, compute):
    """A copy of ``compute(solution)``, which runs once per solution object
    and ``name``; each caller gets its own copy.  Sweeps that race on a
    solution's first use may each compute it, and store equal values."""
    memo = _PER_SOLUTION.setdefault(solution, {})
    if name not in memo:
        memo[name] = compute(solution)
    return copy.deepcopy(memo[name])


# the sweeps' thread pools, one per worker count, each started on first use
# and kept for the process's later sweeps
_POOLS = {}
if hasattr(os, "register_at_fork"):
    # a forked child has none of its parent's worker threads
    os.register_at_fork(after_in_child=_POOLS.clear)


def _pool(workers):
    """The long-lived thread pool of ``workers`` workers.  Callers that race
    on its first use keep the one ``setdefault`` stored; the others start no
    thread."""
    pool = _POOLS.get(workers)
    if pool is None:
        pool = _POOLS.setdefault(workers, ThreadPoolExecutor(
            workers, thread_name_prefix=f"masym-sweep-{workers}"))
    return pool


def _batches(sizes, limit):
    """(start, stop) ranges of consecutive positions, packed greedily so that
    each holds at most ``limit`` cap nodes, the grid's node count, which no
    cap exceeds."""
    out, start, total = [], 0, 0
    for k, n in enumerate(sizes):
        if k > start and total + n > limit:
            out.append((start, k))
            start, total = k, 0
        total += n
    out.append((start, len(sizes)))
    return out


def _reads_gradients(system):
    """Whether a sweep of ``system`` reads the gradient rows: a source or a
    split part reads p, or a gradient Lipschitz constant is nonzero."""
    parts = [e for split in system.splits if split is not None for e in split]
    return (any(e.depends_on("p") for e in (*system.components, *parts))
            or bool(_constants(system.lipschitz_p).any()))


def _sweep_batch(solution, nu, lams, system, cap_tol, grads):
    """The sweep entries of consecutive plane positions.

    One :func:`_read_caps` call finds the positions' caps and reads the
    stack's rows at their nodes and reflections: the 5m + 1 rows of the
    values, Hessians, mask and operator, and with ``grads`` the gradient
    rows too.  A batch holds at most the grid's node count, and the
    bilinear read gathers one cell corner at a time, so the batch's
    arrays stay within a small multiple of the solution's stack.  One
    :func:`_ei_nodes` call serves every position whose cap has a node with
    valid derivatives, and each position's figures are reductions over
    its segment of the batch's nodes, one ``reduceat`` per figure for all
    positions.
    """
    m = solution.m
    idx, _, at_node, at_refl, bounds, n_exited = _read_caps(
        solution, nu, lams, range(7 * m + 1 if grads else 5 * m + 1))
    n_nodes = np.diff(bounds)
    U, deriv_ok = _difference(at_node, at_refl, m)
    # reduceat reads an empty segment as the element at its start, so only
    # the positions with nodes take part: their starts increase strictly
    full = n_nodes > 0
    u_max, audited = np.zeros(len(lams)), np.zeros(len(lams), dtype=bool)
    u_max[full] = np.maximum.reduceat(np.max(U, axis=0), bounds[:-1][full])
    audited[full] = np.logical_or.reduceat(deriv_ok, bounds[:-1][full])
    if audited.any():
        if not audited.all():
            # the sources are evaluated on the audited caps only, as one
            # position at a time evaluates them
            sel = np.repeat(audited, n_nodes)
            idx, U, deriv_ok, at_node, at_refl = (np.compress(sel, a, axis=-1)
                                                  for a in (idx, U, deriv_ok, at_node, at_refl))
        margin, tolerance, ok, _, nonpd = _ei_nodes(
            solution.grid, nu, system, idx, at_node, at_refl, U, deriv_ok, grads)
        starts = np.cumsum(n_nodes[audited]) - n_nodes[audited]
        violations, worst = np.zeros(len(lams), dtype=int), np.zeros(len(lams))
        flagged = np.zeros((m, len(lams)), dtype=int)
        violations[audited] = np.add.reduceat(ok & (margin < -tolerance), starts,
                                              axis=1).sum(axis=0)
        # as verify_elliptic_inequality finds it: per component the least
        # margin of the nodes audited, NaN if one is NaN; across components a
        # NaN is passed over, and a position with no finite least margin
        # reports 0
        least = np.minimum.reduceat(np.where(ok, margin, np.inf), starts, axis=1)
        worst[audited] = np.fmin.reduce(least, axis=0, initial=np.inf)
        worst[~np.isfinite(worst)] = 0.0
        flagged[:, audited] = np.add.reduceat(nonpd, starts, axis=1)
    entries = []
    for k, lam in enumerate(lams):
        entry = {"lambda": float(lam), "n_nodes": int(n_nodes[k]), "n_exited": n_exited[k]}
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
    return entries


def _certificates(solution, nu, planes):
    """The certificates of a sweep, in the order a serial sweep runs them:
    monotonicity, symmetry at Lam0, the boundary checks, which depend on no
    plane and so run once per solution."""
    return (certify_monotonicity(solution, nu, planes),
            certify_symmetry(solution, nu, planes.Lam0),
            _once(solution, "boundary", boundary_checks))


def lambda_sweep(solution, nu, planes, n_lambdas=16, *, system):
    """Sweep plane positions over (lam0, Lam0] and aggregate all certificates.

    Each position gets the cap bound U <= 10 h^2 max_i max |u_i - c_i|
    and, where the cap has a node with valid derivatives, the
    elliptic-inequality audit against ``system`` of :func:`linearize` and
    :func:`verify_elliptic_inequality`, without a frame.  The final
    position is exactly Lam0.  The certificates are those of
    :func:`certify_monotonicity`, :func:`certify_symmetry` at Lam0 and
    :func:`boundary_checks`, which runs once per solution.  Every position
    and certificate reads the solution's :attr:`GridSolution.stack`, built
    on its first use.

    Consecutive positions run in batches of at most as many cap nodes as
    the grid has nodes (see :func:`_batches` and :func:`_sweep_batch`),
    each finding its own caps, and the certificates in one more task,
    submitted first, on the long-lived thread pool (:func:`_pool`) of one
    worker per available core, or per task when there are fewer; so at
    most that many grid-sized batches are in memory at once, and no cap is
    held outside its batch.  The report does not depend on the batches or
    on the number of workers: the reflections are entry-wise, so no node's
    figures depend on the nodes read with it.  An error reaches the caller
    as it was raised, the first in serial order: the batches in position
    order, then monotonicity, symmetry and the boundary checks; the tasks
    not yet started are dropped, and the running ones finish first.  Each
    task runs in a copy of the caller's context, so its ``np.errstate``
    holds.
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
    s = g.node_xy @ nu
    batches = _batches([np.count_nonzero(_in_cap(s, lam, h)) for lam in lams], g.n_nodes)
    grads = _reads_gradients(system)
    # built before the workers share them: a cached_property takes no lock,
    # and an overflowing stack raises here
    solution.stack, solution.node_rows, g.domain.interior_point
    pool = _pool(min(_available_cores(), len(batches) + 1))
    # the certificates, the largest task, start first and are collected last
    certificates = pool.submit(contextvars.copy_context().run, _certificates,
                               solution, nu, planes)
    jobs = [pool.submit(contextvars.copy_context().run, _sweep_batch, solution, nu,
                        lams[a:b], system, cap_tol, grads)
            for a, b in batches] + [certificates]
    try:
        results = [job.result() for job in jobs]
    except BaseException:
        for job in jobs:
            job.cancel()
        wait(jobs)
        raise
    mono, sym, bnd = results.pop()
    entries = [entry for batch_entries in results for entry in batch_entries]
    total_viol = sum(entry.get("ei_violations", 0) for entry in entries)
    all_ok = all(entry["cap_nonpositive"] for entry in entries)
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
