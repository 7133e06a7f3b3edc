"""Radial reduction of the determinant-of-Hessian operator on balls.

For a radial convex function u(r) on a ball in R^n,

    det D^2 u = u''(r) * (u'(r)/r)^(n-1),

with the r -> 0 limit u''(0)^n.  Integrating det D^2 u = g against the
volume element gives the closed quadrature form

    (u'(r))^n = integral_0^r n s^(n-1) g(s) ds,
    u(r)      = c - integral_r^R u'(s) ds,

which is the backbone of all solvers here.  The coupled power system
det D^2 u1 = (-u2)^a, det D^2 u2 = (-u1)^b is exactly homogeneous: the
half-step that solves det D^2 w = (-u)^e maps s*u to s^(e/n) times its
image.  So the solver iterates on unit-amplitude profiles v_i with
det D^2 v1 = mu1 (-v2)^a, det D^2 v2 = mu2 (-v1)^b, a problem that stays
bounded for every exponent pair, and then reads the amplitudes t_i of
u_i = t_i v_i off the 2x2 linear system

    [[-n, a], [b, -n]] (log t1, log t2) = (log mu1, log mu2),

whose determinant n^2 - a*b vanishes exactly where no solution exists.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

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
    """Returned when the coupled pair has no radial solution a float can hold.

    Either a*b = n^2, where the scaling family leaves no amplitude, or the
    amplitudes exist but their logarithms leave the float64 range.
    """

    reason: str
    drift_sign: int              # -1 toward zero, +1 toward infinity
    history: tuple               # per-iteration change of the unit profile


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

    @property
    def R(self):
        return float(self.r[-1])

    def __call__(self, r):
        return np.interp(r, self.r, self.u)


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


def _cumtrapz(y, r):
    """Cumulative trapezoid integral of y over r from r[0], in the operations
    of ``scipy.integrate.cumulative_trapezoid(y, r, initial=0)``."""
    return np.concatenate([[0.0], np.cumsum(np.diff(r) * (y[1:] + y[:-1]) / 2.0)])


def radial_ma_operator(profile):
    """det D^2 u at every grid node of a radial profile.

    At r = 0 the operator degenerates to u''(0)^n.
    """
    r, du, n = profile.r, profile.du, profile.n
    ddu = np.gradient(du, r, edge_order=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(r > 0, du / np.where(r > 0, r, 1.0), ddu)
    vals = ddu * ratio ** (n - 1)
    vals[0] = ddu[0] ** n
    return vals


# the fixed points below average each new iterate half and half with the
# last one and give up after _MAX_ITER iterations
_DAMPING = 0.5
_MAX_ITER = 10_000


def solve_scalar_radial(g, n, R, c, grid_size=2048):
    """Solve det D^2 u = g(r, u, u') radially on the ball of radius R.

    ``g`` is a vectorized callable of (r, u, du) and must stay positive
    on the solution range.  When g depends on (u, u'), a damped fixed
    point on the integrated form is used; otherwise a single pass is
    exact up to quadrature.  The residual tolerance is 1e-8, relative to
    max(1, |g|_inf).
    """
    tol = 1e-8
    if grid_size < 4:
        # the final residual check skips three nodes at the center and one
        # at the boundary
        raise ValueError(f"grid_size must be at least 4, got {grid_size}")
    r = np.linspace(0.0, R, grid_size + 1)
    u = c - 0.5 * (R ** 2 - r ** 2)
    du = r.copy()
    history = []
    for it in range(_MAX_ITER):
        G = np.asarray(g(r, u, du), dtype=float)
        G = np.broadcast_to(G, r.shape)
        if not np.all(G > 0):
            raise SolverDivergence(
                "source became non-positive or non-finite during the radial fixed point",
                history)
        integ = _weighted_cumint(r, G, n)
        du_new = integ ** (1.0 / n)
        total = _cumtrapz(du_new, r)
        u_new = c - (total[-1] - total)
        change = float(np.max(np.abs(u_new - u)) / max(1.0, float(np.max(np.abs(u_new)))))
        history.append(change)
        if change <= 1e-14 or (it > 0 and change <= 0.05 * tol):
            u, du = u_new, du_new
            break
        u = (1.0 - _DAMPING) * u + _DAMPING * u_new
        du = (1.0 - _DAMPING) * du + _DAMPING * du_new
    else:
        raise SolverDivergence(
            f"radial fixed point did not converge in {_MAX_ITER} iterations", history)
    prof = RadialProfile(r=r, u=u, du=du, n=n, c=c)
    resid = radial_ma_operator(prof) - np.broadcast_to(np.asarray(g(r, u, du)), r.shape)
    # skip the two nodes next to r = 0: the operator degenerates there and
    # the centered second difference loses an order for merely Hoelder
    # continuous curvature, without affecting the solution itself
    interior = slice(3, -1)
    worst = float(np.max(np.abs(resid[interior])))
    scale = max(1.0, float(np.max(np.abs(np.asarray(g(r, u, du))))))
    if worst > max(tol, 100.0 / grid_size ** 2) * scale:
        raise SolverDivergence(
            f"radial residual {worst:.3e} exceeds tolerance", history)
    return prof


def _power_solve(source_u, expo, n):
    """One alternating half-step: solve det D^2 v = (-u)^expo given u <= 0."""
    r = source_u.r
    G = np.maximum(-source_u.u, 0.0) ** expo
    integ = _weighted_cumint(r, G, n)
    du = integ ** (1.0 / n)
    total = _cumtrapz(du, r)
    u = -(total[-1] - total)
    return RadialProfile(r=r, u=u, du=du, n=n, c=0.0)


def _scaled(profile, s):
    return RadialProfile(r=profile.r, u=s * profile.u, du=s * profile.du,
                         n=profile.n, c=0.0)


def _unit(profile, history):
    """The profile scaled to max(-u) = 1, and the amplitude it was divided by.

    Raises :class:`SolverDivergence`, carrying ``history``, when the
    amplitude or its reciprocal is 0 or not finite.  A non-finite du
    reaches u through the quadrature, so checking the amplitude is enough.
    """
    amp = float(np.max(-profile.u))
    if not (0.0 < amp < math.inf and 1.0 / amp < math.inf):
        raise SolverDivergence(f"half-step amplitude {amp:.3e} is zero or out of "
                               "the float64 range", history)
    return _scaled(profile, 1.0 / amp), amp


def solve_coupled_radial(alpha, beta, n, R=1.0, tol=1e-9, init=None, grid_size=2048):
    """Radial solutions of the power-coupled pair on the ball of radius R.

    Returns a pair of profiles (u1, u2), both negative inside with zero
    boundary values, or :class:`NoSolution` when alpha*beta is the square
    of the dimension or the amplitudes overflow or underflow a float.
    Raises :class:`SolverDivergence` when R^(n+1), a half-step's
    amplitude or the residual check leaves the float64 range.
    """
    if not (0 < alpha < math.inf and 0 < beta < math.inf):
        raise ValueError(f"alpha and beta must be positive and finite, got {alpha!r}, {beta!r}")
    if not 0 < R < math.inf:
        raise ValueError(f"R must be positive and finite, got {R!r}")
    if n < 1:
        raise ValueError(f"dimension n must be at least 1, got {n}")
    if grid_size < 6:
        # the final residual check skips three nodes at each end
        raise ValueError(f"grid_size must be at least 6, got {grid_size}")
    if abs(alpha * beta - n * n) <= 1e-9 and alpha * beta != n * n:
        warnings.warn(
            "alpha*beta is within 1e-9 of n^2, where no radial convex solution exists",
            RuntimeWarning, stacklevel=2)
    history = []
    # a half-step integrates n s^(n-1) (s - r_k) ds up to R, which reaches
    # R^(n+1); below that bound the start profile and every unit half-step fit
    if (n + 1) * math.log(R) >= math.log(sys.float_info.max):
        raise SolverDivergence(f"R^(n+1) for R = {R!r}, n = {n} leaves the float64 range",
                               history)
    r = np.linspace(0.0, R, grid_size + 1)
    if init is None:
        start = RadialProfile(r=r, u=0.5 * (r ** 2 - r[-1] ** 2), du=r.copy(), n=n, c=0.0)
    else:
        start = RadialProfile(r=r, u=np.interp(r, init[0].r, init[0].u),
                              du=np.interp(r, init[0].r, init[0].du), n=n, c=0.0)
        if not (np.all(np.isfinite(start.u)) and np.all(np.isfinite(start.du))
                and np.max(-start.u) > 0):
            raise ValueError("init[0] must be finite and negative somewhere")
    v1, _ = _unit(start, history)

    # the half-steps are homogeneous, T(s*u) = s^(e/n) T(u), so only the
    # shape is iterated; the amplitudes follow from the log-linear system
    for it in range(_MAX_ITER):
        v2, _ = _unit(_power_solve(v1, beta, n), history)
        w1, _ = _unit(_power_solve(v2, alpha, n), history)
        v1_next, _ = _unit(RadialProfile(r=r, u=(1.0 - _DAMPING) * v1.u + _DAMPING * w1.u,
                                         du=(1.0 - _DAMPING) * v1.du + _DAMPING * w1.du,
                                         n=n, c=0.0), history)
        history.append(float(np.max(np.abs(v1_next.u - v1.u))))
        v1 = v1_next
        if history[-1] <= tol and it > 2:
            break
    else:
        raise SolverDivergence(
            f"coupled radial iteration did not converge in {_MAX_ITER} iterations", history)

    v2, A2 = _unit(_power_solve(v1, beta, n), history)
    _, A1 = _unit(_power_solve(v2, alpha, n), history)
    # det D^2 v_i = mu_i (-v_j)^e with mu_i = A_i^(-n)
    log_mu = -n * np.log([A1, A2])
    if alpha * beta == n * n:
        # one alternating round multiplies the amplitude by A1 * A2^(alpha/n)
        log_kappa = np.log(A1) + alpha / n * np.log(A2)
        return NoSolution(reason="alpha*beta = n^2, so the log-amplitude system is singular",
                          drift_sign=int(np.sign(log_kappa)), history=tuple(history))
    log_t = np.linalg.solve([[-n, alpha], [beta, -n]], log_mu)

    # the residual rule on u_i = t_i v_i, divided through by t_i^n: the pair
    # equations give max(-u_j)^e = t_i^n mu_i.  Exclude the outermost nodes
    # on both ends: the operator degenerates at r = 0 and for fractional
    # exponents the source is only Hoelder continuous at the boundary, where
    # the one-sided curvature estimate loses an order
    log_bound = np.log(10.0 * max(tol, 100.0 / grid_size ** 2))
    for i, (prof, expo, other) in enumerate(((v1, alpha, v2), (v2, beta, v1))):
        if np.any(prof.u[:-1] >= 0):
            raise SolverDivergence("converged iterate is not negative inside", history)
        # for a large n, (u'/r)^(n-1) or mu_i overflows
        with np.errstate(over="ignore", invalid="ignore"):
            resid = (radial_ma_operator(prof)
                     - np.exp(log_mu[i]) * np.maximum(-other.u, 0.0) ** expo)
        worst = float(np.max(np.abs(resid[3:-3])))
        if not math.isfinite(worst):
            raise SolverDivergence(f"coupled residual of the unit profile for n = {n} leaves "
                                   "the float64 range", history)
        log_allowed = log_bound + max(-n * log_t[i], log_mu[i])
        with np.errstate(divide="ignore"):
            passed = np.log(worst) <= log_allowed
        if not passed:
            raise SolverDivergence(f"coupled residual {worst:.3e} of the unit profile "
                                   f"exceeds {np.exp(log_allowed):.3e}", history)

    with np.errstate(over="ignore", under="ignore"):
        t = np.exp(log_t)
        u1, u2 = _scaled(v1, t[0]), _scaled(v2, t[1])
    stored = all(np.all(np.isfinite(p.u)) and np.all(np.isfinite(p.du))
                 and np.all(p.u[:-1] < 0) for p in (u1, u2))
    if not stored:
        return NoSolution(
            reason=f"log-amplitudes log t = ({log_t[0]:.4g}, {log_t[1]:.4g}) leave "
                   "the float64 range",
            drift_sign=int(np.sign(log_t[0])), history=tuple(history))
    return u1, u2


@dataclass(frozen=True)
class UniquenessReport:
    alpha: float
    beta: float
    n: int
    starts: tuple                # per-start exponents p of r^p - R^p
    outcomes: tuple              # "converged" / "no-solution" / "diverged"
    max_pairwise_distance: float
    uniqueness_claimed: bool     # the result only asserts uniqueness for a*b < n^2
    note: str


def uniqueness_probe(alpha, beta, n, R=1.0, n_starts=10):
    """Run the coupled solver from starts of different shapes and compare limits.

    The starts are r^p - R^p with p spanning 1.1 .. 12: the solver
    factors out the amplitude, so starts that differ only in scale would
    coincide.  Uniqueness is only claimed when alpha*beta < n^2; above
    that threshold the probe output is informational.
    """
    powers = np.geomspace(1.1, 12.0, n_starts)
    # the starts live on the solver's default grid of 2048 intervals
    r = np.linspace(0.0, R, 2049)
    limits, outcomes = [], []
    for p in powers:
        base = RadialProfile(r=r, u=r ** p - R ** p, du=p * r ** (p - 1), n=n, c=0.0)
        try:
            res = solve_coupled_radial(alpha, beta, n, R, init=(base, base))
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
    return UniquenessReport(alpha=alpha, beta=beta, n=n, starts=tuple(powers),
                            outcomes=tuple(outcomes), max_pairwise_distance=maxd,
                            uniqueness_claimed=claimed, note=note)
