"""Radial reduction of the determinant-of-Hessian operator on balls.

For a radial convex function u(r) on a ball in R^n,

    det D^2 u = u''(r) * (u'(r)/r)^(n-1),

with the r -> 0 limit u''(0)^n.  Integrating det D^2 u = g against the
volume element gives the closed quadrature form

    (u'(r))^n = integral_0^r n s^(n-1) g(s) ds,
    u(r)      = c - integral_r^R u'(s) ds,

which is the backbone of all solvers here.  The coupled power system
det D^2 u1 = (-u2)^a, det D^2 u2 = (-u1)^b is handled by an alternating
scheme that factors out its exact scaling family; at a*b = n^2 that
family destroys every fixed point and the iteration drifts, which is
what the no-solution detector looks for.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid

__all__ = [
    "RadialProfile",
    "NoSolution",
    "SolverDivergence",
    "radial_ma_operator",
    "solve_scalar_radial",
    "solve_coupled_radial",
    "uniqueness_probe",
]


class SolverDivergence(RuntimeError):
    """Fixed-point iteration failed to converge; carries the iterate history."""

    def __init__(self, message, history):
        super().__init__(message)
        self.history = list(history)


@dataclass(frozen=True)
class NoSolution:
    """Returned when the coupled iteration drifts along its scaling family."""

    reason: str
    drift_sign: int              # -1 toward zero, +1 toward infinity
    history: tuple               # log-amplitude samples
    scaling_residual: float      # invariance check on a trial iterate


@dataclass
class RadialProfile:
    """A radial function on [0, R]: values and first derivative on a grid."""

    r: np.ndarray
    u: np.ndarray
    du: np.ndarray
    n: int
    c: float

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        self.du = np.asarray(self.du, dtype=float)

    def validate(self, tol=1e-9):
        if self.r[0] != 0.0 or np.any(np.diff(self.r) <= 0):
            raise ValueError("radius grid must be strictly increasing from 0")
        if np.any(self.du < -tol) or abs(self.du[0]) > tol:
            raise ValueError("radial derivative must be nonnegative with u'(0) = 0")
        if np.any(np.diff(self.du) < -tol * max(1.0, float(np.max(np.abs(self.du))))):
            raise ValueError("radial derivative must be non-decreasing (convexity)")
        if self.u[-1] != self.c:
            raise ValueError("u(R) must equal the boundary value exactly")

    @property
    def R(self):
        return float(self.r[-1])

    def __call__(self, r):
        return np.interp(r, self.r, self.u)

    def deriv(self, r):
        return np.interp(r, self.r, self.du)


def _weighted_cumint(r, G, n):
    """Cumulative integral_0^r n s^(n-1) G(s) ds with G piecewise linear.

    Integrating the weight exactly keeps the relative error O(dr^2) down
    to r = 0, where plain trapezoid loses all relative accuracy.
    """
    rk, rk1 = r[:-1], r[1:]
    dr = rk1 - rk
    sn = r ** n
    dsn = sn[1:] - sn[:-1]
    slope = (G[1:] - G[:-1]) / dr
    mom1 = n / (n + 1.0) * (rk1 ** (n + 1) - rk ** (n + 1)) - rk * dsn
    inc = G[:-1] * dsn + slope * mom1
    return np.concatenate([[0.0], np.cumsum(inc)])


def _second_derivative(r, du):
    """d(u')/dr by centered differences, one-sided at the ends."""
    ddu = np.gradient(du, r, edge_order=2)
    return ddu


def radial_ma_operator(profile, k=None):
    """det D^2 u at grid node(s) k of a radial profile.

    Returns the full array when k is None.  At r = 0 the operator
    degenerates to u''(0)^n.
    """
    r, du, n = profile.r, profile.du, profile.n
    ddu = _second_derivative(r, du)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(r > 0, du / np.where(r > 0, r, 1.0), ddu)
    vals = ddu * ratio ** (n - 1)
    vals[0] = ddu[0] ** n
    return vals if k is None else float(vals[k])


def solve_scalar_radial(g, n, R, c, tol=1e-8, grid_size=2048, damping=0.5,
                        max_iter=10_000, init=None):
    """Solve det D^2 u = g(r, u, u') radially on the ball of radius R.

    ``g`` is a vectorized callable of (r, u, du) and must stay positive
    on the solution range.  When g depends on (u, u'), a damped fixed
    point on the integrated form is used; otherwise a single pass is
    exact up to quadrature.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    r = np.linspace(0.0, R, grid_size + 1)
    if init is not None:
        u, du = np.interp(r, init.r, init.u), np.interp(r, init.r, init.du)
    else:
        u = c - 0.5 * (R ** 2 - r ** 2)
        du = r.copy()
    history = []
    for it in range(max_iter):
        G = np.asarray(g(r, u, du), dtype=float)
        G = np.broadcast_to(G, r.shape)
        if not np.all(G > 0):
            raise SolverDivergence(
                "source became non-positive or non-finite during the radial fixed point",
                history)
        integ = _weighted_cumint(r, G, n)
        du_new = integ ** (1.0 / n)
        total = cumulative_trapezoid(du_new, r, initial=0.0)
        u_new = c - (total[-1] - total)
        change = float(np.max(np.abs(u_new - u)) / max(1.0, float(np.max(np.abs(u_new)))))
        history.append(change)
        if change <= 1e-14 or (it > 0 and change <= 0.05 * tol):
            u, du = u_new, du_new
            break
        u = (1.0 - damping) * u + damping * u_new
        du = (1.0 - damping) * du + damping * du_new
    else:
        raise SolverDivergence(
            f"radial fixed point did not converge in {max_iter} iterations", history)
    prof = RadialProfile(r=r, u=u, du=du, n=n, c=c)
    resid = radial_ma_operator(prof) - np.broadcast_to(np.asarray(g(r, u, du)), r.shape)
    # skip the two nodes next to r = 0: the operator degenerates there and
    # the centered second difference loses an order for merely Hoelder
    # continuous curvature, without affecting the solution itself
    interior = slice(3, -1)
    worst = float(np.max(np.abs(resid[interior])))
    scale = max(1.0, float(np.max(np.abs(np.asarray(g(r, u, du))))))
    if worst > max(tol, 100.0 / grid_size ** 2 * scale) * scale:
        raise SolverDivergence(
            f"radial residual {worst:.3e} exceeds tolerance", history)
    return prof


def _power_solve(source_u, expo, n, R, grid_size):
    """One alternating half-step: solve det D^2 v = (-u)^expo given u <= 0."""
    r = source_u.r
    G = np.maximum(-source_u.u, 0.0) ** expo
    integ = _weighted_cumint(r, G, n)
    du = integ ** (1.0 / n)
    total = cumulative_trapezoid(du, r, initial=0.0)
    u = -(total[-1] - total)
    return RadialProfile(r=r, u=u, du=du, n=n, c=0.0)


def _amplitude(profile):
    return float(np.max(-profile.u))


def _scaling_family_residual(u1, alpha, beta, n, R, grid_size, t=2.0):
    """Invariance of the half-step under u -> t*u, v -> t^(beta/n)*v.

    At a*b = n^2 this one-parameter family maps solutions to solutions;
    the residual quantifies how exactly the discrete half-step respects it.
    """
    v = _power_solve(u1, beta, n, R, grid_size)
    u1s = RadialProfile(r=u1.r, u=t * u1.u, du=t * u1.du, n=n, c=0.0)
    vs = _power_solve(u1s, beta, n, R, grid_size)
    ref = t ** (beta / n) * v.u
    return float(np.max(np.abs(vs.u - ref)) / max(1e-300, np.max(np.abs(ref))))


def solve_coupled_radial(alpha, beta, n, R=1.0, tol=1e-9, init=None,
                         grid_size=2048, damping=0.5, max_iter=10_000):
    """Radial solutions of the power-coupled pair on the ball of radius R.

    Returns a pair of profiles (u1, u2), both negative inside with zero
    boundary values, or :class:`NoSolution` when the iteration drifts
    along the scaling family (which happens exactly when alpha*beta is
    the square of the dimension).
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    if n < 1:
        raise ValueError(f"dimension n must be at least 1, got {n}")
    if grid_size < 6:
        # the final residual check skips three nodes at each end
        raise ValueError(f"grid_size must be at least 6, got {grid_size}")
    if abs(alpha * beta - n * n) <= 1e-9 and alpha * beta != n * n:
        warnings.warn(
            "alpha*beta is within 1e-9 of n^2, where no radial convex solution exists",
            RuntimeWarning, stacklevel=2)
    q = alpha * beta / n ** 2
    r = np.linspace(0.0, R, grid_size + 1)
    if init is not None:
        u1 = RadialProfile(r=r, u=np.interp(r, init[0].r, init[0].u),
                           du=np.interp(r, init[0].r, init[0].du), n=n, c=0.0)
    else:
        u1 = RadialProfile(r=r, u=0.5 * (r ** 2 - R ** 2), du=r.copy(), n=n, c=0.0)

    rescale = abs(q - 1.0) > 1e-6
    log_amp = []
    drift_run, drift_sign = 0, 0
    u1_prev = u1.u.copy()
    for it in range(max_iter):
        u2 = _power_solve(u1, beta, n, R, grid_size)
        u1_new = _power_solve(u2, alpha, n, R, grid_size)
        a = _amplitude(u1)
        C = _amplitude(u1_new)
        if C == 0.0 or not np.isfinite(C):
            return NoSolution(
                reason="iterate collapsed or overflowed",
                drift_sign=-1 if C == 0.0 else 1,
                history=tuple(log_amp),
                scaling_residual=float("nan"))
        if rescale:
            # the update scales as T(s*u) = s^q T(u); pin the amplitude to
            # the unique self-consistent value instead of letting the
            # repelling (q > 1) or slow (q < 1) amplitude mode wander
            a_star = (C * a ** (-q)) ** (1.0 / (1.0 - q))
            u1_new = RadialProfile(r=r, u=u1_new.u * (a_star / C),
                                   du=u1_new.du * (a_star / C), n=n, c=0.0)
        u_next = (1.0 - damping) * u1.u + damping * u1_new.u
        du_next = (1.0 - damping) * u1.du + damping * u1_new.du
        u1 = RadialProfile(r=r, u=u_next, du=du_next, n=n, c=0.0)
        log_amp.append(np.log(max(_amplitude(u1), 1e-300)))
        change = float(np.max(np.abs(u1.u - u1_prev)) / max(1e-300, _amplitude(u1)))
        u1_prev = u1.u.copy()
        if change <= tol and it > 2:
            break
        # drift detection: classify the log-amplitude slope every 50
        # iterations; 500 sustained monotone iterations means the scaling
        # family has destroyed the fixed point
        if not rescale and it % 50 == 49 and len(log_amp) >= 100:
            slope = log_amp[-1] - log_amp[-51]
            sgn = 1 if slope > 1e-12 else (-1 if slope < -1e-12 else 0)
            if sgn != 0 and sgn == drift_sign:
                drift_run += 50
            else:
                drift_sign, drift_run = sgn, 50
            if drift_run >= 500:
                resid = _scaling_family_residual(u1, alpha, beta, n, R, grid_size)
                return NoSolution(
                    reason="sustained monotone amplitude drift "
                           f"toward {'infinity' if drift_sign > 0 else 'zero'}",
                    drift_sign=drift_sign,
                    history=tuple(log_amp),
                    scaling_residual=resid)
    else:
        raise SolverDivergence(
            f"coupled radial iteration did not converge in {max_iter} iterations",
            log_amp)

    u2 = _power_solve(u1, beta, n, R, grid_size)
    for prof, expo, other in ((u1, alpha, u2), (u2, beta, u1)):
        resid = radial_ma_operator(prof) - np.maximum(-other.u, 0.0) ** expo
        # exclude the outermost nodes on both ends: the operator
        # degenerates at r = 0 and for fractional exponents the source is
        # only Hoelder continuous at the boundary, where the one-sided
        # curvature estimate loses an order
        worst = float(np.max(np.abs(resid[3:-3])))
        scale = max(1.0, _amplitude(other) ** expo)
        if worst > max(tol, 100.0 / grid_size ** 2) * scale * 10:
            raise SolverDivergence(f"coupled residual {worst:.3e} exceeds tolerance",
                                   log_amp)
        if np.any(prof.u[:-1] >= 0):
            raise SolverDivergence("converged iterate is not negative inside", log_amp)
    return u1, u2


@dataclass(frozen=True)
class UniquenessReport:
    alpha: float
    beta: float
    n: int
    starts: tuple                # per-start scale factors
    outcomes: tuple              # "converged" / "no-solution" / "diverged"
    max_pairwise_distance: float
    uniqueness_claimed: bool     # the result only asserts uniqueness for a*b < n^2
    note: str


def uniqueness_probe(alpha, beta, n, R=1.0, n_starts=10, tol=1e-9, grid_size=2048):
    """Run the coupled solver from widely scaled starts and compare limits.

    Start scales span 1e-2 .. 1e2 times a reference parabola.  Uniqueness
    is only claimed when alpha*beta < n^2; above that threshold the probe
    output is informational.
    """
    scales = np.geomspace(1e-2, 1e2, n_starts)
    r = np.linspace(0.0, R, grid_size + 1)
    limits, outcomes = [], []
    for s in scales:
        base = RadialProfile(r=r, u=0.5 * s * (r ** 2 - R ** 2), du=s * r, n=n, c=0.0)
        try:
            res = solve_coupled_radial(alpha, beta, n, R, tol=tol,
                                       init=(base, base), grid_size=grid_size)
        except SolverDivergence:
            outcomes.append("diverged")
            continue
        if isinstance(res, NoSolution):
            outcomes.append("no-solution")
            continue
        outcomes.append("converged")
        limits.append(np.concatenate([res[0].u, res[1].u]))
    maxd = 0.0
    for i in range(len(limits)):
        for j in range(i + 1, len(limits)):
            maxd = max(maxd, float(np.max(np.abs(limits[i] - limits[j]))))
    claimed = alpha * beta < n * n
    note = ("uniqueness follows from the power-coupling threshold" if claimed else
            "existence only above the threshold; the probe reports whichever "
            "fixed point the damped iteration reaches")
    return UniquenessReport(alpha=alpha, beta=beta, n=n, starts=tuple(scales),
                            outcomes=tuple(outcomes), max_pairwise_distance=maxd,
                            uniqueness_claimed=claimed, note=note)
