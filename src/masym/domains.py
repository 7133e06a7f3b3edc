"""Bounded convex domain geometry.

Shapes (balls, ellipses, tubes, implicit level sets), hyperplane
reflections, half-domain masks, and the critical plane positions that
control how far a hyperplane can be slid across a domain while the
reflected cap stays inside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "GeometryError",
    "ConvexityError",
    "Domain",
    "Ball",
    "Ellipse",
    "Tube",
    "SmoothLevelSet",
    "CriticalPlanes",
    "HalfDomainMask",
    "reflect_point",
    "half_domain_mask",
    "critical_planes",
    "domain_to_json",
    "domain_from_json",
]


class GeometryError(ValueError):
    """Invalid geometric input (non-unit direction, bad shape parameters)."""


class ConvexityError(GeometryError):
    """Domain is not convex along the requested direction.

    Carries a witness line (point, direction) along which the domain
    was found to be disconnected.
    """

    def __init__(self, message, witness_point=None, direction=None):
        super().__init__(message)
        self.witness_point = witness_point
        self.direction = direction


def _as_unit(nu, n=None):
    nu = np.asarray(nu, dtype=float)
    if n is not None and nu.shape != (n,):
        raise GeometryError(f"direction must have shape ({n},), got {nu.shape}")
    if abs(np.linalg.norm(nu) - 1.0) > 1e-12:
        raise GeometryError(f"direction must be a unit vector, |nu| = {np.linalg.norm(nu)}")
    return nu


def reflect_point(x, nu, lam):
    """Reflect ``x`` through the hyperplane {y : y . nu = lam}.

    Vectorized over leading axes of ``x``; the last axis is the spatial
    dimension.  The map is an involutive isometry.
    """
    x = np.asarray(x, dtype=float)
    nu = _as_unit(nu, x.shape[-1])
    return x + 2.0 * (lam - x @ nu)[..., None] * nu


class Domain:
    """Base class for bounded domains.

    Subclasses provide ``dimension``, ``bounding_box`` (shape (n, 2)),
    ``level`` (negative inside, zero on the boundary) and, where the
    shape allows, closed forms for the support minimum along a
    direction.  All instances are immutable and safe to share.
    """

    dimension: int

    def bounding_box(self):
        raise NotImplementedError

    def level(self, x):
        raise NotImplementedError

    def contains(self, x):
        return self.level(x) < 0.0

    def support_min(self, nu):
        """inf of x . nu over the domain, or None if no closed form."""
        return None

    def bbox_diameter(self):
        bb = self.bounding_box()
        return float(np.linalg.norm(bb[:, 1] - bb[:, 0]))

    # 2-D shapes override with an arclength-like parametrization on [0, 1).
    def boundary_param(self, t):
        raise NotImplementedError(f"{type(self).__name__} has no boundary parametrization")

    def boundary_normal(self, x):
        raise NotImplementedError(f"{type(self).__name__} has no boundary normal")


@dataclass(frozen=True)
class Ball(Domain):
    center: tuple
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise GeometryError("ball radius must be positive")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))

    @property
    def dimension(self):
        return len(self.center)

    def bounding_box(self):
        c = np.asarray(self.center)
        return np.stack([c - self.radius, c + self.radius], axis=1)

    def level(self, x):
        x = np.asarray(x, dtype=float)
        return np.linalg.norm(x - np.asarray(self.center), axis=-1) - self.radius

    def support_min(self, nu):
        return float(np.dot(self.center, nu) - self.radius)

    def boundary_param(self, t):
        if self.dimension != 2:
            raise NotImplementedError("boundary parametrization is 2-D only")
        th = 2.0 * np.pi * np.asarray(t, dtype=float)
        c = np.asarray(self.center)
        return c + self.radius * np.stack([np.cos(th), np.sin(th)], axis=-1)

    def boundary_normal(self, x):
        d = np.asarray(x, dtype=float) - np.asarray(self.center)
        return d / np.linalg.norm(d, axis=-1, keepdims=True)


@dataclass(frozen=True)
class Ellipse(Domain):
    center: tuple
    semi_axes: tuple

    def __post_init__(self):
        if any(a <= 0 for a in self.semi_axes):
            raise GeometryError("ellipse semi-axes must be positive")
        if len(self.center) != len(self.semi_axes):
            raise GeometryError("center/semi-axes dimension mismatch")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "semi_axes", tuple(float(a) for a in self.semi_axes))

    @property
    def dimension(self):
        return len(self.center)

    def bounding_box(self):
        c = np.asarray(self.center)
        a = np.asarray(self.semi_axes)
        return np.stack([c - a, c + a], axis=1)

    def level(self, x):
        x = np.asarray(x, dtype=float)
        t = (x - np.asarray(self.center)) / np.asarray(self.semi_axes)
        return np.sum(t * t, axis=-1) - 1.0

    def support_min(self, nu):
        a = np.asarray(self.semi_axes)
        return float(np.dot(self.center, nu) - math.sqrt(float(np.sum((a * nu) ** 2))))

    def boundary_param(self, t):
        if self.dimension != 2:
            raise NotImplementedError("boundary parametrization is 2-D only")
        th = 2.0 * np.pi * np.asarray(t, dtype=float)
        c = np.asarray(self.center)
        a = np.asarray(self.semi_axes)
        return c + np.stack([a[0] * np.cos(th), a[1] * np.sin(th)], axis=-1)

    def boundary_normal(self, x):
        d = (np.asarray(x, dtype=float) - np.asarray(self.center)) / np.asarray(self.semi_axes) ** 2
        return d / np.linalg.norm(d, axis=-1, keepdims=True)


@dataclass(frozen=True)
class Tube(Domain):
    """Cartesian product cross_section x (-H, H), axis along the last coordinate."""

    cross_section: Domain
    half_height: float

    def __post_init__(self):
        if self.half_height <= 0:
            raise GeometryError("tube half-height must be positive")

    @property
    def dimension(self):
        return self.cross_section.dimension + 1

    def bounding_box(self):
        bb = self.cross_section.bounding_box()
        return np.vstack([bb, [-self.half_height, self.half_height]])

    def level(self, x):
        x = np.asarray(x, dtype=float)
        lc = self.cross_section.level(x[..., :-1])
        la = np.abs(x[..., -1]) - self.half_height
        return np.maximum(lc, la)

    def support_min(self, nu):
        nu = np.asarray(nu, dtype=float)
        nuc, nua = nu[:-1], nu[-1]
        s = -self.half_height * abs(float(nua))
        nc = np.linalg.norm(nuc)
        if nc > 0:
            base = self.cross_section.support_min(nuc / nc)
            if base is None:
                return None
            s += nc * base
        return float(s)


@dataclass(frozen=True)
class SmoothLevelSet(Domain):
    """Implicit domain {phi < 0} with a user-supplied gradient of phi."""

    phi: Callable
    grad_phi: Callable
    bbox: tuple  # ((x0, x1), (y0, y1), ...)

    @property
    def dimension(self):
        return len(self.bbox)

    def bounding_box(self):
        return np.asarray(self.bbox, dtype=float)

    def level(self, x):
        return np.asarray(self.phi(np.asarray(x, dtype=float)))

    def boundary_normal(self, x):
        g = np.asarray(self.grad_phi(np.asarray(x, dtype=float)), dtype=float)
        return g / np.linalg.norm(g, axis=-1, keepdims=True)


@dataclass(frozen=True)
class CriticalPlanes:
    """Critical positions of a hyperplane slid along direction ``nu``.

    lam0   first touch with the domain,
    Lam0   sup of positions whose reflected cap stays inside,
    Lam1   first internal tangency of the reflected cap away from the plane,
    Lam2   first boundary point where the outer normal is orthogonal to nu.
    """

    nu: tuple
    lam0: float
    Lam0: float
    Lam1: float
    Lam2: float
    tangency_witness: Optional[tuple] = None
    orthogonality_witness: Optional[tuple] = None

    def __post_init__(self):
        if not self.lam0 < self.Lam0:
            raise GeometryError(f"expected lam0 < Lam0, got {self.lam0} >= {self.Lam0}")
        if self.Lam0 > self.Lam2 + 1e-9:
            raise GeometryError(f"expected Lam0 <= Lam2, got {self.Lam0} > {self.Lam2}")


@dataclass(frozen=True)
class HalfDomainMask:
    """Nodes of a point set lying in the half-domain {x . nu < lam}."""

    mask: np.ndarray
    reflected_points: np.ndarray
    reflected_inside: np.ndarray


def half_domain_mask(domain, nu, lam, points):
    """Mark points of the domain strictly left of the plane at ``lam``.

    ``points`` has shape (..., n).  Also reflects every marked point and
    records whether the image lands back inside the domain.
    """
    points = np.asarray(points, dtype=float)
    nu = _as_unit(nu, domain.dimension)
    inside = domain.contains(points)
    mask = inside & (points @ nu < lam)
    refl = reflect_point(points, nu, lam)
    reflected_inside = mask & domain.contains(refl)
    return HalfDomainMask(mask=mask, reflected_points=refl, reflected_inside=reflected_inside)


def check_convex_in_direction(domain, nu, n_lines=64, n_pts=256):
    """Sampled check that every line parallel to nu meets the domain in one segment."""
    nu = _as_unit(nu, domain.dimension)
    bb = domain.bounding_box()
    n = domain.dimension
    rng = np.random.default_rng(0)
    lo, hi = bb[:, 0], bb[:, 1]
    diam = domain.bbox_diameter()
    base = lo + (hi - lo) * rng.random((n_lines, n))
    t = np.linspace(-diam, diam, n_pts)
    for b in base:
        pts = b[None, :] + t[:, None] * nu[None, :]
        inside = domain.contains(pts)
        if not inside.any():
            continue
        idx = np.flatnonzero(inside)
        if idx[-1] - idx[0] != len(idx) - 1:
            raise ConvexityError(
                "domain is not convex along the moving direction",
                witness_point=tuple(b), direction=tuple(nu),
            )


def _support_min_sampled(domain, nu, resolution):
    bb = domain.bounding_box()
    n = domain.dimension
    k = max(8, int(math.ceil(domain.bbox_diameter() / max(resolution, 1e-3))))
    k = min(k, 400)
    axes = [np.linspace(bb[i, 0], bb[i, 1], k) for i in range(n)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    inside = domain.contains(mesh)
    if not inside.any():
        raise GeometryError("no sample points found inside the domain")
    proj = mesh[inside] @ nu
    # refine by a pattern search: march against nu, and allow lateral
    # moves at the current scale so the minimizer can slide along the
    # boundary toward the true support point
    x = mesh[inside][np.argmin(proj)]
    basis = np.linalg.svd(np.eye(n) - np.outer(nu, nu))[0][:, : n - 1].T
    step = domain.bbox_diameter() / k

    def march(y, s):
        while s > resolution * 1e-3:
            z = y - s * nu
            if domain.contains(z[None, :])[0]:
                y = z
            else:
                s *= 0.5
        return y

    x = march(x, step)
    while step > resolution:
        improved = False
        for b in basis:
            for sgn in (1.0, -1.0):
                y = x + sgn * step * b
                if domain.contains(y[None, :])[0]:
                    y = march(y, step)
                    if y @ nu < x @ nu - resolution * 1e-3:
                        x, improved = y, True
        if not improved:
            step *= 0.5
    return float(x @ nu)


def _boundary_crossings_2d(domain, nu, lam, coarse=4096):
    """Parameter values where a 2-D parametrized boundary crosses {x . nu = lam}."""
    t = np.linspace(0.0, 1.0, coarse, endpoint=False)
    s = domain.boundary_param(t) @ nu - lam
    cross = []
    for i in range(coarse):
        j = (i + 1) % coarse
        if s[i] == 0.0:
            cross.append(t[i])
        elif s[i] * s[j] < 0:
            a, b = t[i], t[i] + 1.0 / coarse
            fa = s[i]
            for _ in range(80):
                mid = 0.5 * (a + b)
                fm = float(domain.boundary_param(mid) @ nu - lam)
                if fa * fm <= 0:
                    b = mid
                else:
                    a, fa = mid, fm
            cross.append(0.5 * (a + b))
    return cross


def _cap_boundary_samples(domain, nu, lam, resolution):
    """Boundary points of the cap {x in bdry : x . nu < lam}.

    For parametrized 2-D shapes, samples are refined geometrically toward
    the plane crossings so containment flips are detected even when the
    plane sits within ~1e-9 of the critical position.
    """
    diam = domain.bbox_diameter()
    try:
        t = np.linspace(0.0, 1.0, max(64, int(diam / max(resolution, 1e-3))), endpoint=False)
        t = np.minimum(t, 1.0 - 1e-12)
        pts = domain.boundary_param(t)
        near = []
        for tc in _boundary_crossings_2d(domain, nu, lam):
            offs = np.geomspace(1e-14, 0.25, 48)
            near.append((tc + offs) % 1.0)
            near.append((tc - offs) % 1.0)
        if near:
            pts = np.vstack([pts, domain.boundary_param(np.concatenate(near))])
        sel = pts @ nu < lam
        return pts[sel]
    except NotImplementedError:
        pass
    # implicit shapes: locate boundary by bisection along lines parallel to nu
    bb = domain.bounding_box()
    n = domain.dimension
    if n != 2:
        raise NotImplementedError("generic cap sampling is implemented for 2-D domains")
    perp = np.array([-nu[1], nu[0]])
    c = 0.5 * (bb[:, 0] + bb[:, 1])
    offs = np.linspace(-0.5 * diam, 0.5 * diam, 256)
    ts = np.linspace(-0.5 * diam, 0.5 * diam, 512)
    out = []
    for o in offs:
        line = c + o * perp + ts[:, None] * nu
        inside = domain.contains(line)
        idx = np.flatnonzero(inside)
        if len(idx) == 0:
            continue
        for lo_i, hi_i, sgn in ((idx[0] - 1, idx[0], -1), (idx[-1], idx[-1] + 1, 1)):
            if lo_i < 0 or hi_i >= len(ts):
                continue
            a, b = ts[lo_i], ts[hi_i]
            for _ in range(60):
                mid = 0.5 * (a + b)
                if domain.contains((c + o * perp + mid * nu)[None, :])[0] == (sgn < 0):
                    b = mid
                else:
                    a = mid
            out.append(c + o * perp + 0.5 * (a + b) * nu)
    pts = np.asarray(out).reshape(-1, 2)
    return pts[pts @ nu < lam]


def _reflected_cap_contained(domain, nu, lam, resolution):
    pts = _cap_boundary_samples(domain, nu, lam, resolution)
    if len(pts) == 0:
        return True
    refl = reflect_point(pts, nu, lam)
    return bool(np.all(domain.level(refl) <= 0.0))


def _bisect_sup(pred, lo, hi, tol):
    """sup of {t in [lo, hi] : pred true on [lo, t]}, assuming pred(lo)."""
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _implicit_boundary_param(domain):
    """Ray-cast parametrization of an implicit 2-D boundary by polar angle.

    Rays start from the deepest sampled interior point, so the map covers
    the whole boundary of a convex domain without pole gaps.
    """
    bb = domain.bounding_box()
    gx = np.linspace(bb[0, 0], bb[0, 1], 64)
    gy = np.linspace(bb[1, 0], bb[1, 1], 64)
    gpts = np.stack(np.meshgrid(gx, gy, indexing="ij"), axis=-1).reshape(-1, 2)
    center = gpts[int(np.argmin(domain.level(gpts)))]
    diam = domain.bbox_diameter()

    def param(t):
        th = 2.0 * np.pi * np.asarray(t, dtype=float)
        d = np.stack([np.cos(th), np.sin(th)], axis=-1)
        lo = np.zeros(len(d))
        hi = np.full(len(d), diam)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            inside = domain.contains(center + mid[:, None] * d)
            lo = np.where(inside, mid, lo)
            hi = np.where(inside, hi, mid)
        return center + (0.5 * (lo + hi))[:, None] * d

    return param


def _ellipse_symmetric_along(domain, nu):
    """True when nu is a principal direction, so the central plane normal to
    nu is a plane of symmetry; a slanted nu has Lam0 <= Lam2 < center . nu."""
    a2 = np.asarray(domain.semi_axes) ** 2
    skew = a2 * nu - np.dot(a2 * nu, nu) * nu
    return bool(np.linalg.norm(skew) <= 1e-12 * np.max(a2))


def _orthogonality_plane(domain, nu, resolution):
    """First plane position with a boundary normal orthogonal to nu, plus witness."""
    if isinstance(domain, Ball):
        return float(np.dot(domain.center, nu)), None
    if isinstance(domain, Ellipse):
        a = np.asarray(domain.semi_axes)
        w = a * nu
        v = nu / a
        proj = w - (np.dot(w, v) / np.dot(v, v)) * v
        val = float(np.dot(domain.center, nu) - np.linalg.norm(proj))
        return val, None
    if isinstance(domain, Tube):
        # orthogonality is assessed on the smooth lateral surface; the flat
        # caps meet every plane orthogonally and are handled by corner checks
        nuc = np.asarray(nu[:-1])
        nc = np.linalg.norm(nuc)
        if nc == 0:
            raise GeometryError("moving direction along the tube axis is not supported")
        sub, wit = _orthogonality_plane(domain.cross_section, nuc / nc, resolution)
        return nc * sub, wit
    # parametrized or implicit 2-D: scan boundary samples for sign changes of n . nu
    t = np.linspace(0.0, 1.0, 4096, endpoint=False)
    try:
        domain.boundary_param(np.array([0.0]))
        param = domain.boundary_param
    except NotImplementedError:
        param = _implicit_boundary_param(domain)
    pts = param(t)
    dots = np.einsum("ij,j->i", domain.boundary_normal(pts), nu)
    best, wit = np.inf, None
    for i in range(len(t)):
        j = (i + 1) % len(t)
        if dots[i] == 0.0 or dots[i] * dots[j] < 0:
            a, b = t[i], t[i] + 1.0 / len(t)
            fa = dots[i]
            for _ in range(80):
                mid = 0.5 * (a + b)
                fm = float(np.dot(domain.boundary_normal(param(np.array([mid]))[0]), nu))
                if fa * fm <= 0:
                    b = mid
                else:
                    a, fa = mid, fm
            p = param(np.array([0.5 * (a + b)]))[0]
            if p @ nu < best:
                best, wit = float(p @ nu), tuple(np.atleast_1d(p))
    if not np.isfinite(best):
        raise GeometryError("no orthogonality point found on sampled boundary")
    return best, wit


def _tangency_plane(domain, nu, lam0, Lam0, resolution, tol):
    """First position where the reflected cap touches the boundary away from the plane."""
    if isinstance(domain, Ball):
        return float(np.dot(domain.center, nu)), None
    diam = domain.bbox_diameter()
    band = max(10 * tol, 1e-7 * diam)

    def no_tangency(lam):
        pts = _cap_boundary_samples(domain, nu, lam - band, resolution)
        if len(pts) == 0:
            return True
        refl = reflect_point(pts, nu, lam)
        return bool(np.all(domain.level(refl) < -0.0))

    lam = _bisect_sup(no_tangency, lam0 + tol, lam0 + diam, tol)
    pts = _cap_boundary_samples(domain, nu, lam - band, resolution)
    wit = None
    if len(pts) > 0:
        refl = reflect_point(pts, nu, lam + 2 * tol)
        k = int(np.argmax(domain.level(refl)))
        wit = tuple(refl[k])
    return lam, wit


def critical_planes(domain, nu, resolution=None):
    """Compute the four critical plane positions along direction ``nu``.

    ``resolution`` bounds the bisection tolerance; the default is 1e-9 of
    the bounding-box diameter.  Raises :class:`ConvexityError` when the
    domain is not convex along ``nu``.
    """
    nu = _as_unit(nu, domain.dimension)
    diam = domain.bbox_diameter()
    if resolution is None:
        resolution = 1e-9 * diam
    tol = min(resolution, 1e-9 * diam)
    check_convex_in_direction(domain, nu)

    lam0 = domain.support_min(nu)
    if lam0 is None:
        lam0 = _support_min_sampled(domain, nu, resolution)

    if isinstance(domain, Ball):
        c = float(np.dot(domain.center, nu))
        return CriticalPlanes(nu=tuple(nu), lam0=lam0, Lam0=c, Lam1=c, Lam2=c)

    if isinstance(domain, Tube):
        nuc = np.asarray(nu[:-1])
        nc = np.linalg.norm(nuc)
        if abs(nc - 1.0) > 1e-12:
            raise GeometryError("tube critical planes require a direction orthogonal to the axis")
        sub = critical_planes(domain.cross_section, nuc / nc, resolution)
        return CriticalPlanes(
            nu=tuple(nu), lam0=sub.lam0, Lam0=sub.Lam0, Lam1=sub.Lam1, Lam2=sub.Lam2,
            tangency_witness=sub.tangency_witness,
            orthogonality_witness=sub.orthogonality_witness,
        )

    if isinstance(domain, Ellipse) and _ellipse_symmetric_along(domain, nu):
        # reflection about the central plane preserves the domain, and past
        # it the reflected cap pokes outside
        Lam0 = float(np.dot(domain.center, nu))
    else:
        Lam0 = _bisect_sup(
            lambda lam: _reflected_cap_contained(domain, nu, lam, resolution),
            lam0 + tol, lam0 + diam, tol,
        )
    Lam1, tw = _tangency_plane(domain, nu, lam0, Lam0, resolution, tol)
    Lam2, ow = _orthogonality_plane(domain, nu, resolution)
    # snap tiny bisection residue so the Lam0 <= Lam2 invariant is not
    # tripped by one half-tolerance of slack
    if Lam0 > Lam2 and Lam0 - Lam2 < 4 * tol:
        Lam0 = Lam2
    return CriticalPlanes(nu=tuple(nu), lam0=lam0, Lam0=Lam0, Lam1=Lam1, Lam2=Lam2,
                          tangency_witness=tw, orthogonality_witness=ow)


def domain_to_json(domain):
    if isinstance(domain, Ball):
        return {"shape": "ball", "center": list(domain.center), "radius": domain.radius}
    if isinstance(domain, Ellipse):
        return {"shape": "ellipse", "center": list(domain.center),
                "semi_axes": list(domain.semi_axes)}
    if isinstance(domain, Tube):
        return {"shape": "tube", "cross_section": domain_to_json(domain.cross_section),
                "half_height": domain.half_height}
    raise GeometryError(f"{type(domain).__name__} is not JSON-serializable")


def domain_from_json(obj):
    shape = obj.get("shape")
    if shape == "ball":
        return Ball(center=tuple(obj["center"]), radius=float(obj["radius"]))
    if shape == "ellipse":
        return Ellipse(center=tuple(obj["center"]), semi_axes=tuple(obj["semi_axes"]))
    if shape == "tube":
        return Tube(cross_section=domain_from_json(obj["cross_section"]),
                    half_height=float(obj["half_height"]))
    raise GeometryError(f"unknown shape {shape!r}")
