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
    """A solve failed; carries its ``history``.

    The radial fixed points raise it when they do not converge or leave
    the float64 range, with one change per iterate.  The grid solver raises
    it when a source is non-positive or non-finite, when a Newton step is
    singular or non-finite, when the line search is exhausted or when the
    sweeps reach ``max_newton``; ``GridSolution.stack`` raises it, with the
    solve's history, when a solution's derivative fields overflow.  A
    grid ``history`` holds one record per sweep, as
    :attr:`masym.gridsolve.GridSolution.history` does.
    """

    def __init__(self, message, history):
        super().__init__(message)
        self.history = list(history)


@dataclass(frozen=True)
class NoSolution:
    """Returned when the coupled power pair has no solution a float can hold.

    Either a*b = n^2, where the scaling family leaves no amplitude, or the
    amplitudes exist but their logarithms leave the float64 range.  The
    radial and the grid solver both return it.
    """

    reason: str
    drift_sign: int              # -1 toward zero, +1 toward infinity
    history: tuple               # per-iteration record of the unit-profile solve


def log_amplitudes(alpha, beta, n, rhs, history):
    """The log-amplitudes of the pair det D^2 u_i = mu_i (-u_j)^e_i from unit profiles.

    With unit profiles v_i (max(-v_i) = 1) and amplitudes A_i such that
    det D^2 (A_i v_i) = (-v_j)^e_i, u_i = t_i v_i solves the pair exactly
    when [[n, -alpha], [-beta, n]] (log t1, log t2) = rhs with
    rhs_i = n log A_i + log mu_i; alpha = e_1 and beta = e_2.  Returns
    log t, or :class:`NoSolution` carrying ``history`` when
    alpha*beta = n^2.  There one alternating round multiplies t1 by
    exp((rhs_1 + alpha/n rhs_2) / n), whose sign is the drift.
    """
    if alpha * beta == n * n:
        return NoSolution(reason="alpha*beta = n^2, so the log-amplitude system is singular",
                          drift_sign=int(np.sign(rhs[0] + alpha / n * rhs[1])),
                          history=tuple(history))
    return np.linalg.solve([[n, -alpha], [-beta, n]], rhs)


def out_of_range(log_t, history):
    """:class:`NoSolution` for log-amplitudes whose amplitudes no float64 holds."""
    return NoSolution(
        reason=f"log-amplitudes log t = ({log_t[0]:.4g}, {log_t[1]:.4g}) leave "
               "the float64 range",
        drift_sign=int(np.sign(log_t[0])), history=tuple(history))


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


class _Quadrature:
    """Cumulative integral_0^r n s^(n-1) G(s) ds on one radius grid r.

    G is piecewise linear, and the weight is integrated exactly on each
    interval; that keeps the relative error O(dr^2) down to r = 0, where
    plain trapezoid loses all relative accuracy.  The interval weights
    depend on (r, n) only, so a solve builds them once.
    """

    def __init__(self, r, n):
        rk, rk1 = r[:-1], r[1:]
        self.r, self.n = r, n
        self.dr = rk1 - rk
        sn = r ** n
        self.dsn = sn[1:] - sn[:-1]
        self.mom1 = n / (n + 1.0) * (rk1 ** (n + 1) - rk ** (n + 1)) - rk * self.dsn

    def cumint(self, G):
        out = np.empty(len(self.r))
        out[0] = 0.0
        inc = out[1:]
        np.subtract(G[1:], G[:-1], out=inc)
        inc /= self.dr
        inc *= self.mom1
        inc += G[:-1] * self.dsn
        np.cumsum(inc, out=inc)
        return out

    def cumtrapz(self, y):
        """Cumulative trapezoid integral of y over r from r[0], in the operations
        of ``scipy.integrate.cumulative_trapezoid(y, r, initial=0)``."""
        out = np.empty(len(self.r))
        out[0] = 0.0
        inc = out[1:]
        np.add(y[1:], y[:-1], out=inc)
        inc *= self.dr
        inc /= 2.0
        np.cumsum(inc, out=inc)
        return out


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


# the fixed points below give up after _MAX_ITER iterations
_MAX_ITER = 10_000


def solve_scalar_radial(g, n, R, c, grid_size=2048):
    """Solve det D^2 u = g(r, u, u') radially on the ball of radius R.

    ``g`` is a vectorized callable of (r, u, du) and must stay positive
    on the solution range.  Each pass solves the integrated form with g
    at the last pass's (u, u') and steps to its solution, so a source free
    of (u, u') finishes after one pass and one confirming pass, exact up to
    quadrature.  The operator residual, away from r = 0, must be within
    max(1e-8, 100 / grid_size^2) times max(1, |g|_inf), which is 2.4e-5 at the
    default grid: the second difference's own truncation error.
    """
    tol = 1e-8
    if grid_size < 4:
        # the final residual check skips three nodes at the center and one
        # at the boundary
        raise ValueError(f"grid_size must be at least 4, got {grid_size}")
    r = np.linspace(0.0, R, grid_size + 1)
    u = c - 0.5 * (R ** 2 - r ** 2)
    du = r.copy()
    quad = _Quadrature(r, n)
    history = []
    for it in range(_MAX_ITER):
        G = np.asarray(g(r, u, du), dtype=float)
        G = np.broadcast_to(G, r.shape)
        if not np.all((G > 0) & (G < np.inf)):
            raise SolverDivergence(
                "source became non-positive or non-finite during the radial fixed point",
                history)
        du_new = quad.cumint(G) ** (1.0 / n)
        total = quad.cumtrapz(du_new)
        u_new = c - (total[-1] - total)
        change = float(np.max(np.abs(u_new - u)) / max(1.0, float(np.max(np.abs(u_new)))))
        history.append(change)
        u, du = u_new, du_new
        if change <= 1e-14 or (it > 0 and change <= 0.05 * tol):
            break
    else:
        raise SolverDivergence(
            f"radial fixed point did not converge in {_MAX_ITER} iterations", history)
    prof = RadialProfile(r=r, u=u, du=du, n=n, c=c)
    G = np.broadcast_to(np.asarray(g(r, u, du), dtype=float), r.shape)
    resid = radial_ma_operator(prof) - G
    # skip the two nodes next to r = 0: the operator degenerates there and
    # the centered second difference loses an order for merely Hoelder
    # continuous curvature, without affecting the solution itself
    interior = slice(3, -1)
    worst = float(np.max(np.abs(resid[interior])))
    scale = max(1.0, float(np.max(np.abs(G))))
    if worst > max(tol, 100.0 / grid_size ** 2) * scale:
        raise SolverDivergence(
            f"radial residual {worst:.3e} exceeds tolerance", history)
    return prof


def _power_solve(source_u, expo, quad):
    """One alternating half-step: solve det D^2 v = (-u)^expo given u <= 0,
    with the :class:`_Quadrature` of source_u's grid."""
    G = np.maximum(-source_u.u, 0.0) ** expo
    du = quad.cumint(G) ** (1.0 / quad.n)
    total = quad.cumtrapz(du)
    u = -(total[-1] - total)
    return RadialProfile(r=quad.r, u=u, du=du, n=quad.n, c=0.0)


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

    The iteration starts from the values of the :class:`RadialProfile`
    ``init`` on the solver's grid, by default from (r^2 - R^2) / 2.
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
    history = []
    # a half-step integrates n s^(n-1) (s - r_k) ds up to R, which reaches
    # R^(n+1); below that bound the start profile and every unit half-step fit
    if (n + 1) * math.log(R) >= math.log(sys.float_info.max):
        raise SolverDivergence(f"R^(n+1) for R = {float(R)!r}, n = {n} leaves the float64 range",
                               history)
    r = np.linspace(0.0, R, grid_size + 1)
    u = 0.5 * (r ** 2 - r[-1] ** 2) if init is None else init(r)
    if init is not None and not (np.all(np.isfinite(u)) and np.max(-u) > 0):
        raise ValueError("init must be finite and negative somewhere")
    # a half-step reads its source's values only, so the start's du stays 0
    v1, _ = _unit(RadialProfile(r=r, u=u, du=np.zeros_like(r), n=n, c=0.0), history)
    quad = _Quadrature(r, n)

    # the half-steps are homogeneous, T(s*u) = s^(e/n) T(u), so only the
    # shape is iterated; the amplitudes follow from the log-linear system
    for it in range(_MAX_ITER):
        v2, _ = _unit(_power_solve(v1, beta, quad), history)
        w1, _ = _unit(_power_solve(v2, alpha, quad), history)
        history.append(float(np.max(np.abs(w1.u - v1.u))))
        v1 = w1
        if history[-1] <= tol and it > 2:
            break
    else:
        raise SolverDivergence(
            f"coupled radial iteration did not converge in {_MAX_ITER} iterations", history)

    v2, A2 = _unit(_power_solve(v1, beta, quad), history)
    _, A1 = _unit(_power_solve(v2, alpha, quad), history)
    # det D^2 v_i = mu_i (-v_j)^e with mu_i = A_i^(-n)
    log_mu = -n * np.log([A1, A2])
    log_t = log_amplitudes(alpha, beta, n, -log_mu, history)
    if isinstance(log_t, NoSolution):
        return log_t

    # the residual rule on u_i = t_i v_i, divided through by t_i^n: the pair
    # equations give max(-u_j)^e = t_i^n mu_i.  Exclude the outermost nodes
    # on both ends: the operator degenerates at r = 0 and for fractional
    # exponents the source is only Hoelder continuous at the boundary, where
    # the one-sided curvature estimate loses an order
    log_bound = np.log(10.0 * max(tol, 100.0 / grid_size ** 2))
    for i, (prof, name, expo, other) in enumerate(((v1, "alpha", alpha, v2),
                                                   (v2, "beta", beta, v1))):
        if np.any(prof.u[:-1] >= 0):
            raise SolverDivergence("converged iterate is not negative inside", history)
        source = np.maximum(-other.u, 0.0) ** expo
        # a source that is 0 wherever the residual is read leaves nothing checked
        if not np.any(source[3:-3] > 0):
            raise SolverDivergence(f"half-step source (-v{2 - i})^{name}, {name} = {expo!r}, "
                                   "is 0 at every node the residual rule checks", history)
        # for a large n, (u'/r)^(n-1) or mu_i overflows
        with np.errstate(over="ignore", invalid="ignore"):
            resid = radial_ma_operator(prof) - np.exp(log_mu[i]) * source
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

    # an infinite amplitude times the zero boundary value is NaN; the
    # check below reports either as out of range
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        t = np.exp(log_t)
        u1, u2 = _scaled(v1, t[0]), _scaled(v2, t[1])
    stored = all(np.all(np.isfinite(p.u)) and np.all(np.isfinite(p.du))
                 and np.all(p.u[:-1] < 0) for p in (u1, u2))
    if not stored:
        return out_of_range(log_t, history)
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
            res = solve_coupled_radial(alpha, beta, n, R, init=base)
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
            "fixed point the iteration reaches")
    return UniquenessReport(alpha=alpha, beta=beta, n=n, starts=tuple(powers),
                            outcomes=tuple(outcomes), max_pairwise_distance=maxd,
                            uniqueness_claimed=claimed, note=note)
