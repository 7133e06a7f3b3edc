"""Bounded convex domain geometry.

Shapes (balls, ellipses, tubes, implicit level sets), hyperplane
reflections, and the critical plane positions that
control how far a hyperplane can be slid across a domain while the
reflected cap stays inside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

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
    "reflect_point",
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
    # written so that a NaN norm fails too
    if not abs(np.linalg.norm(nu) - 1.0) <= 1e-12:
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


def _slab_exit(o, d, lo, hi):
    """Per-axis exit parameter of rays from inside the slabs lo < x < hi."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(d > 0, (hi - o) / d, np.where(d < 0, (lo - o) / d, np.inf))


def _unit_sphere_exit(o, d):
    """Largest root t of |o + t d|^2 = 1 for |o| < 1, inf when d = 0.

    Written so that neither branch subtracts nearly equal numbers.
    """
    a = np.sum(d * d, axis=-1)
    b = np.sum(o * d, axis=-1)
    c = np.sum(o * o, axis=-1) - 1.0
    root = np.sqrt(np.maximum(b * b - a * c, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(b >= 0, -c / (b + root), (root - b) / a)


class Domain:
    """Base class for bounded domains.

    Subclasses provide ``dimension``, ``bounding_box`` (shape (n, 2)),
    ``level`` (negative inside, zero on the boundary) and, where the
    shape allows, closed forms for the support minimum along a
    direction and for :meth:`ray_exit`.  All instances are immutable and
    safe to share.
    """

    dimension: int

    def bounding_box(self):
        raise NotImplementedError

    def level(self, x):
        raise NotImplementedError

    def contains(self, x):
        return self.level(x) < 0.0

    def ray_exit(self, origins, dirs):
        """Largest t with ``origins + t * dirs`` still inside, per ray.

        ``origins`` (inside the domain) and ``dirs`` broadcast against each
        other over leading axes; the last axis is the spatial dimension.
        A zero direction never leaves and gets ``inf``.  This base version
        bisects on :meth:`contains` between the origin and the ray's exit
        from the bounding box until the bracket is two adjacent floats,
        and returns its inside end; it assumes each ray leaves the domain
        once, as it does from an interior point of a convex domain.
        """
        o, d = np.broadcast_arrays(np.asarray(origins, dtype=float),
                                   np.asarray(dirs, dtype=float))
        bb = self.bounding_box()
        hi = np.min(_slab_exit(o, d, bb[:, 0], bb[:, 1]), axis=-1)
        lo = np.zeros_like(hi)
        while True:
            mid = 0.5 * (lo + hi)
            open_ = (mid > lo) & (mid < hi)
            if not open_.any():
                return np.where(np.isfinite(hi), lo, np.inf)
            inside = self.contains(o + mid[..., None] * d)
            lo = np.where(open_ & inside, mid, lo)
            hi = np.where(open_ & ~inside, mid, hi)

    def support_min(self, nu):
        """inf of x . nu over the domain, or None if no closed form."""
        return None

    def bbox_diameter(self):
        bb = self.bounding_box()
        return float(np.linalg.norm(bb[:, 1] - bb[:, 0]))

    @cached_property
    def interior_point(self):
        """The deepest node of a 65-per-axis grid over the bounding box
        (read-only: every caller shares the cached array).

        The odd count puts the box centre on a node.  Nodes within
        round-off (1e-12 relative) of the deepest level tie; the tie goes
        to the node fewest steps from the centre, then to the
        lexicographically first, so a symmetric domain gets its centre
        whatever the round-off of its level function.
        """
        bb = self.bounding_box()
        axes = [np.linspace(lo, hi, 65) for lo, hi in bb]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, self.dimension)
        lev = self.level(pts)
        deepest = lev.min()
        tie = np.flatnonzero(lev <= deepest + 1e-12 * abs(deepest))
        steps = np.stack(np.unravel_index(tie, (65,) * self.dimension), axis=-1) - 32
        # argmin returns the first minimum, and the nodes are in lexicographic order
        c = pts[tie[int(np.argmin(np.sum(steps * steps, axis=1)))]].copy()
        c.flags.writeable = False
        return c

    def boundary_param(self, t):
        """Boundary point at polar angle 2 pi t about :attr:`interior_point` (2-D).

        On a convex domain every ray from an interior point leaves once, so
        t in [0, 1) covers the boundary with no pole gaps.
        """
        if self.dimension != 2:
            raise NotImplementedError("boundary parametrization is 2-D only")
        th = 2.0 * np.pi * np.asarray(t, dtype=float)
        d = np.stack([np.cos(th), np.sin(th)], axis=-1)
        c = self.interior_point
        return c + self.ray_exit(c, d)[..., None] * d

    def boundary_normal(self, x):
        raise NotImplementedError(f"{type(self).__name__} has no boundary normal")


class _Quadric(Domain):
    """A ball or ellipse: center and semi-axes; a ball's level is a distance."""

    @property
    def dimension(self):
        return len(self.center)

    def bounding_box(self):
        c, a = np.asarray(self.center), self._axes()
        return np.stack([c - a, c + a], axis=1)

    def support_min(self, nu):
        return float(np.dot(self.center, nu) - math.sqrt(float(np.sum((self._axes() * nu) ** 2))))

    def ray_exit(self, origins, dirs):
        a = self._axes()
        o = (np.asarray(origins, dtype=float) - np.asarray(self.center)) / a
        return _unit_sphere_exit(o, np.asarray(dirs, dtype=float) / a)

    def boundary_normal(self, x):
        d = (np.asarray(x, dtype=float) - np.asarray(self.center)) / self._axes() ** 2
        return d / np.linalg.norm(d, axis=-1, keepdims=True)


@dataclass(frozen=True)
class Ball(_Quadric):
    center: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if not (0 < self.radius < math.inf and all(map(math.isfinite, self.center))):
            raise GeometryError("ball radius must be positive and its center finite")

    def _axes(self):
        return np.full(len(self.center), float(self.radius))

    def support_min(self, nu):
        return float(np.dot(self.center, nu) - self.radius)

    def level(self, x):
        x = np.asarray(x, dtype=float)
        return np.linalg.norm(x - np.asarray(self.center), axis=-1) - self.radius


@dataclass(frozen=True)
class Ellipse(_Quadric):
    center: tuple
    semi_axes: tuple

    def __post_init__(self):
        if len(self.center) != len(self.semi_axes):
            raise GeometryError("center/semi-axes dimension mismatch")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "semi_axes", tuple(float(a) for a in self.semi_axes))
        if not (all(0 < a < math.inf for a in self.semi_axes)
                and all(map(math.isfinite, self.center))):
            raise GeometryError("ellipse semi-axes must be positive and its center finite")

    def _axes(self):
        return np.asarray(self.semi_axes)

    def level(self, x):
        x = np.asarray(x, dtype=float)
        t = (x - np.asarray(self.center)) / np.asarray(self.semi_axes)
        return np.sum(t * t, axis=-1) - 1.0


@dataclass(frozen=True)
class Tube(Domain):
    """Cartesian product cross_section x (-H, H), axis along the last coordinate."""

    cross_section: Domain
    half_height: float

    def __post_init__(self):
        if not 0 < self.half_height < math.inf:
            raise GeometryError("tube half-height must be positive and finite")

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

    def ray_exit(self, origins, dirs):
        o, d = np.broadcast_arrays(np.asarray(origins, dtype=float),
                                   np.asarray(dirs, dtype=float))
        H = self.half_height
        return np.minimum(self.cross_section.ray_exit(o[..., :-1], d[..., :-1]),
                          _slab_exit(o[..., -1], d[..., -1], -H, H))

    def boundary_normal(self, x):
        """The cross-section's normal where its level is the larger, else the cap's."""
        x = np.asarray(x, dtype=float)
        side = self.cross_section.level(x[..., :-1]) >= np.abs(x[..., -1]) - self.half_height
        n = np.zeros_like(x)
        n[..., -1] = np.where(side, 0.0, np.sign(x[..., -1]))
        n[side, :-1] = self.cross_section.boundary_normal(x[side, :-1])
        return n


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
    Lam2   first boundary point where the outer normal is orthogonal to nu.
    """

    nu: tuple
    lam0: float
    Lam0: float
    Lam2: float

    def __post_init__(self):
        if not self.lam0 < self.Lam0:
            raise GeometryError(f"expected lam0 < Lam0, got {self.lam0} >= {self.Lam0}")
        if self.Lam0 > self.Lam2 + 1e-9:
            raise GeometryError(f"expected Lam0 <= Lam2, got {self.Lam0} > {self.Lam2}")


def check_convex_in_direction(domain, nu):
    """Sampled check that every line parallel to nu meets the domain in one
    segment: 64 random lines of 256 points each."""
    nu = _as_unit(nu, domain.dimension)
    bb = domain.bounding_box()
    n = domain.dimension
    rng = np.random.default_rng(0)
    lo, hi = bb[:, 0], bb[:, 1]
    diam = domain.bbox_diameter()
    base = lo + (hi - lo) * rng.random((64, n))
    t = np.linspace(-diam, diam, 256)
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


def _chord_ends(domain, nu):
    """Boundary points at both ends of 256 chords parallel to nu (2-D), sampled
    once per direction and filtered per plane position by the cap tests, and
    the level's round-off at a reflected boundary point: a few ulps of the
    level's largest magnitude on the chord lines, and as much again per
    diameter of the largest coordinate, for the coordinates' round-off."""
    if domain.dimension != 2:
        raise NotImplementedError("cap sampling is implemented for 2-D domains")
    bb = domain.bounding_box()
    diam = domain.bbox_diameter()
    perp = np.array([-nu[1], nu[0]])
    offs = np.linspace(-0.5 * diam, 0.5 * diam, 256)
    ts = np.linspace(-0.5 * diam, 0.5 * diam, 512)
    lines = 0.5 * (bb[:, 0] + bb[:, 1]) + offs[:, None, None] * perp + ts[:, None] * nu
    level = domain.level(lines.reshape(-1, 2)).reshape(len(offs), len(ts))
    inside = level < 0.0
    hit = np.flatnonzero(inside.any(axis=1))
    first = np.argmax(inside[hit], axis=1)
    last = len(ts) - 1 - np.argmax(inside[hit, ::-1], axis=1)
    origins = np.concatenate([lines[hit, first], lines[hit, last]])
    dirs = np.repeat([-nu, nu], len(hit), axis=0)
    slack = 4.0 * np.finfo(float).eps * np.max(np.abs(level)) \
        * (1.0 + np.max(np.abs(lines)) / diam)
    return origins + domain.ray_exit(origins, dirs)[:, None] * dirs, slack


def _cap_samples(domain, nu, lam, ends):
    """Boundary points of the cap {x in bdry : x . nu < lam}.

    The chord ends below the plane, plus the boundary points at
    geometrically spaced depths below it, found by ray exits along the
    plane from the segment joining the lowest and highest chord ends, so
    containment flips are detected even when the plane sits within ~1e-9
    of the critical position.
    """
    proj = ends @ nu
    lo, hi = ends[np.argmin(proj)], ends[np.argmax(proj)]
    depth = lam - domain.bbox_diameter() * np.geomspace(1e-14, 0.25, 48)
    frac = (depth - lo @ nu) / ((hi - lo) @ nu)
    q = lo + frac[(frac > 0) & (frac < 1), None] * (hi - lo)
    perp = np.array([-nu[1], nu[0]])
    q, d = np.concatenate([q, q]), np.repeat([perp, -perp], len(q), axis=0)
    return np.vstack([ends[proj < lam], q + domain.ray_exit(q, d)[:, None] * d])


def _reflected_cap_contained(domain, nu, lam, ends, slack):
    # a sample on the plane reflects onto itself, where its level is
    # round-off away from zero
    refl = reflect_point(_cap_samples(domain, nu, lam, ends), nu, lam)
    return bool(np.all(domain.level(refl) <= slack))


def _bisect_sup(pred, lo, hi, tol):
    """sup of {t in [lo, hi] : pred true on [lo, t]}, assuming pred(lo).

    Elementwise over array brackets: ``pred`` maps an array of positions
    to an array of booleans.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    for _ in range(200):
        if np.all(hi - lo <= tol):
            break
        mid = 0.5 * (lo + hi)
        ok = pred(mid)
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    return 0.5 * (lo + hi)


def _ellipse_symmetric_along(domain, nu):
    """True when nu is a principal direction, so the central plane normal to
    nu is a plane of symmetry; a slanted nu has Lam0 <= Lam2 < center . nu."""
    a2 = np.asarray(domain.semi_axes) ** 2
    skew = a2 * nu - np.dot(a2 * nu, nu) * nu
    return bool(np.linalg.norm(skew) <= 1e-12 * np.max(a2))


def _orthogonality_plane(domain, nu):
    """First plane position with a boundary normal orthogonal to nu."""
    if isinstance(domain, Ellipse):
        a = np.asarray(domain.semi_axes)
        w = a * nu
        v = nu / a
        proj = w - (np.dot(w, v) / np.dot(v, v)) * v
        return float(np.dot(domain.center, nu) - np.linalg.norm(proj))
    pts = _boundary_points_normal_to(domain, nu)
    return float(pts[int(np.argmin(pts @ nu))] @ nu)


def _boundary_points_normal_to(domain, w):
    """Points of a 2-D boundary where the outer normal is orthogonal to w.

    Every sign change of n . w over 4096 samples of
    :meth:`Domain.boundary_param` is refined by one joint bisection.
    """
    def dots(t):
        return domain.boundary_normal(domain.boundary_param(t)) @ w

    t = np.linspace(0.0, 1.0, 4096, endpoint=False)
    s = dots(t)
    i = np.flatnonzero((s == 0.0) | (s * np.roll(s, -1) < 0))
    if len(i) == 0:
        raise GeometryError("no boundary normal orthogonal to the direction was found")
    return domain.boundary_param(_bisect_sup(lambda m: dots(m) * s[i] > 0, t[i],
                                             t[i] + 1.0 / len(t), np.finfo(float).eps))


def critical_planes(domain, nu):
    """Compute the critical plane positions along direction ``nu``.

    The bisections resolve plane positions to 1e-9 of the bounding-box
    diameter.  Raises :class:`ConvexityError` when the domain is not
    convex along ``nu``.
    """
    nu = _as_unit(nu, domain.dimension)
    diam = domain.bbox_diameter()
    tol = 1e-9 * diam
    check_convex_in_direction(domain, nu)

    if isinstance(domain, Tube):
        nuc = np.asarray(nu[:-1])
        nc = np.linalg.norm(nuc)
        if abs(nc - 1.0) > 1e-12:
            raise GeometryError("tube critical planes require a direction orthogonal to the axis")
        sub = critical_planes(domain.cross_section, nuc / nc)
        return CriticalPlanes(nu=tuple(nu), lam0=sub.lam0, Lam0=sub.Lam0, Lam2=sub.Lam2)

    lam0 = domain.support_min(nu)
    if lam0 is None:
        # the first touch is where the outer normal is -nu
        pts = _boundary_points_normal_to(domain, np.array([-nu[1], nu[0]]))
        lam0 = float(np.min(pts @ nu))

    if isinstance(domain, Ball):
        c = float(np.dot(domain.center, nu))
        return CriticalPlanes(nu=tuple(nu), lam0=lam0, Lam0=c, Lam2=c)

    if isinstance(domain, Ellipse) and _ellipse_symmetric_along(domain, nu):
        # reflection about the central plane preserves the domain, and past
        # it the reflected cap pokes outside
        Lam0 = float(np.dot(domain.center, nu))
    else:
        ends, slack = _chord_ends(domain, nu)
        Lam0 = float(_bisect_sup(
            lambda lam: _reflected_cap_contained(domain, nu, lam, ends, slack),
            lam0 + tol, lam0 + diam, tol,
        ))
    Lam2 = _orthogonality_plane(domain, nu)
    # snap tiny bisection residue so the Lam0 <= Lam2 invariant is not
    # tripped by one half-tolerance of slack
    if Lam0 > Lam2 and Lam0 - Lam2 < 4 * tol:
        Lam0 = Lam2
    return CriticalPlanes(nu=tuple(nu), lam0=lam0, Lam0=Lam0, Lam2=Lam2)


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
