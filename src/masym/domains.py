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
    """Invalid geometric input (non-unit direction, bad shape parameters);
    ``key`` names the JSON key of the offending value, or is None."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class ConvexityError(GeometryError):
    """Domain is not convex along the requested direction.

    Carries a witness line (point, direction) along which the domain
    was found to be disconnected.
    """

    def __init__(self, message, witness_point=None, direction=None):
        super().__init__(message)
        self.witness_point = witness_point
        self.direction = direction


def _finite(value, positive=False):
    """True for a number, not a boolean, that a float holds finitely (and > 0 if asked)."""
    try:
        return not isinstance(value, bool) and math.isfinite(value) and (value > 0 or not positive)
    except (TypeError, OverflowError):
        return False


def _store_floats(obj, key, positive=False, many=False):
    """Store field ``key`` of a frozen shape as a float, or a tuple of them when
    ``many``, each :func:`_finite`; else raise a :class:`GeometryError` naming it."""
    value = getattr(obj, key)
    listed = isinstance(value, (list, tuple, np.ndarray))
    values = value if listed else [value]
    if listed != many or not all(_finite(v, positive) for v in values):
        what = f"{'positive ' if positive else ''}finite number"
        raise GeometryError(f"{key} must be {f'a list of {what}s' if many else f'a {what}'}",
                            key=key)
    object.__setattr__(obj, key, tuple(map(float, values)) if many else float(value))


def _known_keys(obj, allowed, what, error):
    """Raise ``error``, its ``key`` naming it, for the first key of ``obj`` not in ``allowed``."""
    for key in obj:
        if key not in allowed:
            raise error(f"unknown {what} key {key!r}; allowed: {', '.join(allowed)}", key=key)


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

    Vectorized over leading axes of ``x``, the last axis being the spatial
    dimension; ``lam`` is a number or one position per point.  The map is
    an involutive isometry, formed entry-wise with x . nu summed from its
    first term (from 0, -0.0 would turn +0.0), so a point's reflection
    does not depend on the points reflected with it.
    """
    x = np.asarray(x, dtype=float)
    nu = _as_unit(nu, x.shape[-1])
    # a coordinate at a time: a broadcast along the short last axis is slow
    proj = sum((x[..., k] * nu[k] for k in range(1, len(nu))), x[..., 0] * nu[0])
    step = 2.0 * (lam - proj)
    out = np.empty(step.shape + nu.shape)
    for k in range(len(nu)):
        np.add(x[..., k], step * nu[k], out=out[..., k])
    return out


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
    shape allows, a closed form for :meth:`ray_exit`.  All instances are
    immutable and safe to share.
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
        _store_floats(self, "center", many=True)
        _store_floats(self, "radius", positive=True)

    def _axes(self):
        return np.full(len(self.center), self.radius)

    def level(self, x):
        # a sum over the coordinates: a reduction or a broadcast along a short
        # last axis is slow
        x = np.asarray(x, dtype=float)
        return np.sqrt(sum((x[..., k] - c) ** 2 for k, c in enumerate(self.center))) - self.radius


@dataclass(frozen=True)
class Ellipse(_Quadric):
    center: tuple
    semi_axes: tuple

    def __post_init__(self):
        _store_floats(self, "center", many=True)
        _store_floats(self, "semi_axes", positive=True, many=True)
        if len(self.center) != len(self.semi_axes):
            raise GeometryError("center/semi-axes dimension mismatch")

    def _axes(self):
        return np.asarray(self.semi_axes)

    def level(self, x):
        # a sum over the coordinates, as on a ball
        x = np.asarray(x, dtype=float)
        return sum(((x[..., k] - c) / a) ** 2
                   for k, (c, a) in enumerate(zip(self.center, self.semi_axes))) - 1.0


@dataclass(frozen=True)
class Tube(Domain):
    """Cartesian product cross_section x (-H, H), axis along the last coordinate."""

    cross_section: Domain
    half_height: float

    def __post_init__(self):
        _store_floats(self, "half_height", positive=True)

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
    Lam0   sup of positions whose reflected cap stays inside: on a domain
           convex along nu, the least midpoint of the chords parallel to nu,
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


def _boundary_points_normal_to(domain, ws):
    """Points of a 2-D boundary where the outer normal is orthogonal to w,
    one array for each row w of ``ws``.

    Every sign change of n . w over one sample of 4096 points of
    :meth:`Domain.boundary_param` is refined by one joint bisection of
    the brackets of all the rows.
    """
    def dots(t):
        n = domain.boundary_normal(domain.boundary_param(t))
        return np.stack([n @ w for w in ws])

    t = np.linspace(0.0, 1.0, 4096, endpoint=False)
    s = dots(t)
    k, i = np.nonzero((s == 0.0) | (s * np.roll(s, -1, axis=1) < 0))
    if len(np.unique(k)) < len(ws):
        raise GeometryError("no boundary normal orthogonal to the direction was found")
    pts = domain.boundary_param(_bisect_sup(lambda m: dots(m)[k, np.arange(len(m))] * s[k, i] > 0,
                                            t[i], t[i] + 1.0 / len(t), np.finfo(float).eps))
    return [pts[k == j] for j in range(len(ws))]


def _least_chord_midpoint(domain, nu, pts, tol):
    """Least midpoint along nu of the chords parallel to nu (2-D).

    The chords cross the segment from a to b, the points of ``pts`` with the
    least and greatest coordinate across nu, which lies inside a convex
    domain.  The least midpoint of the chords through 256 points of the
    segment is refined in the bracket around it until the bracket is
    within ``tol``.
    """
    across = pts @ np.array([-nu[1], nu[0]])
    a, b = pts[int(np.argmin(across))], pts[int(np.argmax(across))]
    dirs, span = np.stack([nu, -nu]), np.linalg.norm(b - a)
    lo, hi, least = 0.0, 1.0, np.inf
    while (hi - lo) * span > tol:
        s = np.linspace(lo, hi, 258)[1:-1]
        o = a + s[:, None] * (b - a)
        exits = domain.ray_exit(o[:, None, :], dirs)
        mid = o @ nu + 0.5 * (exits[:, 0] - exits[:, 1])
        i = int(np.argmin(mid))
        least = min(least, float(mid[i]))
        lo, hi = (s[i - 1] if i > 0 else lo), (s[i + 1] if i + 1 < len(s) else hi)
    return least


def critical_planes(domain, nu):
    """Compute the critical plane positions along direction ``nu``.

    A ball along any ``nu`` and an ellipse along a principal axis, ``nu``
    with one nonzero entry, are symmetric about the plane through their
    centre: lam0 = c . nu - a_k, with a_k the semi-axis along nu (a ball's
    radius), and Lam0 = Lam2 = c . nu.  A tube, whose ``nu`` must be
    orthogonal to its axis, takes its cross-section's planes; none of these
    is sampled for convexity.  Any other domain must be 2-D.  An ellipse is
    convex by construction; any other is sampled by
    :func:`check_convex_in_direction`.  lam0 and Lam2 come from the
    boundary points whose outer normal is -nu or orthogonal to nu, both
    read off one boundary sample, and Lam0 from the chord midpoints,
    refined to 1e-9 of the bounding-box diameter.  Raises
    :class:`ConvexityError` when the domain is not convex along ``nu``.
    """
    nu = _as_unit(nu, domain.dimension)
    if isinstance(domain, Tube):
        nuc = np.asarray(nu[:-1])
        nc = np.linalg.norm(nuc)
        if abs(nc - 1.0) > 1e-12:
            raise GeometryError("tube critical planes require a direction orthogonal to the axis")
        sub = critical_planes(domain.cross_section, nuc / nc)
        return CriticalPlanes(nu=tuple(nu), lam0=sub.lam0, Lam0=sub.Lam0, Lam2=sub.Lam2)

    if isinstance(domain, Ball) or (isinstance(domain, Ellipse) and np.count_nonzero(nu) == 1):
        c = float(np.dot(domain.center, nu))
        a = float(domain._axes()[np.argmax(np.abs(nu))])
        return CriticalPlanes(nu=tuple(nu), lam0=c - a, Lam0=c, Lam2=c)

    # balls and ellipses are convex, and a tube is convex along nu when its
    # cross-section is
    if not isinstance(domain, Ellipse):
        check_convex_in_direction(domain, nu)
    # the first touch is where the outer normal is -nu
    touch, pts = _boundary_points_normal_to(domain, np.array([[-nu[1], nu[0]], nu]))
    lam0 = float(np.min(touch @ nu))
    Lam2 = float(pts[int(np.argmin(pts @ nu))] @ nu)
    # the reflected cap stays inside while the plane is at most the midpoint
    # of every chord parallel to nu; the chords shrink to points of pts at
    # both ends of their range, so their midpoints tend to Lam2 or above
    Lam0 = min(Lam2, _least_chord_midpoint(domain, nu, pts, 1e-9 * domain.bbox_diameter()))
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


_SHAPES = {"ball": (Ball, ("center", "radius")),
           "ellipse": (Ellipse, ("center", "semi_axes")),
           "tube": (Tube, ("cross_section", "half_height"))}


def domain_from_json(obj, *, _key="domain"):
    """The domain of a JSON object: shape ``ball`` with ``center`` and ``radius``,
    ``ellipse`` with ``center`` and ``semi_axes``, or ``tube`` with a
    ``cross_section`` of these forms and ``half_height``.  Raises
    :class:`GeometryError`, its ``key`` naming the key at fault, for anything
    else, an unknown key or a number that is a boolean, not finite, or not
    positive where a size must be; ``KeyError`` for a missing key."""
    shape = obj.get("shape") if isinstance(obj, dict) else None
    if not (isinstance(shape, str) and shape in _SHAPES):
        raise GeometryError(f"{_key} must be a JSON object with shape one of "
                            f"{', '.join(_SHAPES)}", key=_key)
    cls, keys = _SHAPES[shape]
    _known_keys(obj, ("shape", *keys), _key, GeometryError)
    args = {key: obj[key] for key in keys}
    if shape == "tube":
        args["cross_section"] = domain_from_json(obj["cross_section"], _key="cross_section")
    return cls(**args)
