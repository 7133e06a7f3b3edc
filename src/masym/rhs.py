"""Right-hand-side systems f = (f^1, ..., f^m) and their structural checks.

A system couples the equations through the unknown vector z.  Besides
evaluation, this module computes the one-sided difference quotients used
by the diagnostic linearization and screens a system, by quasi-random
sampling over a user-declared box, for the structural conditions the
symmetry results need: positivity, component monotonicity, Lipschitz
bounds, and the reflection/orthogonal invariances of the source term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .expressions import Expr, ExpressionDomainError, const, parse

__all__ = [
    "RhsSystem",
    "HypothesisReport",
    "ConfigurationError",
    "HYPOTHESES",
    "eval_f",
    "d_ij",
    "check_hypotheses",
    "power_coupled_system",
]

# screening checks, in the order they are reported
HYPOTHESES = (
    "positivity",             # f^i > 0
    "uniform_positivity",     # f^i >= c_f > 0
    "own_component_split",    # f^i = f^{i,1} + f^{i,2}: Lipschitz + non-increasing parts
    "cross_monotonicity",     # f^i non-increasing in z^j, j != i
    "gradient_lipschitz",     # f^i Lipschitz in p
    "reflection_comparison",  # f^i(y1, x', z, pbar) >= f^i(x, z, p) left of the plane
    "axis_evenness",          # f^i even in x1 and p1
    "orthogonal_invariance",  # f^i(Ox, z, O'p) = f^i(x, z, p)
)


class ConfigurationError(ValueError):
    """System is missing structure required by the requested operation."""


def _as_expr(e):
    if isinstance(e, Expr):
        return e
    if isinstance(e, str):
        return parse(e)
    if isinstance(e, (int, float)):
        return const(e)
    return Expr.from_json(e)


@dataclass(frozen=True)
class RhsSystem:
    """The m-tuple of source expressions, with optional declared structure.

    ``splits[i]`` is an optional pair (lipschitz part, non-increasing
    part) whose sum must equal ``components[i]``.  Declared Lipschitz
    constants override the sampled estimates in downstream modules.
    """

    components: tuple
    n: int
    splits: tuple = None
    lipschitz_z: tuple = None  # h_{f^i, z^i} per component, or None entries
    lipschitz_p: tuple = None  # h_{f^i, p} per component, or None entries

    def __post_init__(self):
        comps = tuple(_as_expr(c) for c in self.components)
        object.__setattr__(self, "components", comps)
        m = len(comps)
        if m < 1:
            raise ConfigurationError("system needs at least one component")
        splits = self.splits if self.splits is not None else (None,) * m
        splits = tuple(
            None if s is None else (_as_expr(s[0]), _as_expr(s[1])) for s in splits
        )
        if len(splits) != m:
            raise ConfigurationError("splits length must match component count")
        object.__setattr__(self, "splits", splits)
        for name in ("lipschitz_z", "lipschitz_p"):
            v = getattr(self, name)
            v = (None,) * m if v is None else tuple(v)
            if len(v) != m:
                raise ConfigurationError(f"{name} length must match component count")
            object.__setattr__(self, name, v)

    @property
    def m(self):
        return len(self.components)

    def to_json(self):
        return {
            "n": self.n,
            "components": [c.to_json() for c in self.components],
            "splits": [None if s is None else [s[0].to_json(), s[1].to_json()]
                       for s in self.splits],
            "lipschitz_z": list(self.lipschitz_z),
            "lipschitz_p": list(self.lipschitz_p),
        }

    @staticmethod
    def from_json(obj):
        return RhsSystem(
            components=tuple(obj["components"]),
            n=int(obj["n"]),
            splits=tuple(None if s is None else tuple(s) for s in obj.get("splits") or
                         (None,) * len(obj["components"])),
            lipschitz_z=obj.get("lipschitz_z"),
            lipschitz_p=obj.get("lipschitz_p"),
        )


def power_coupled_system(alpha, beta):
    """det D^2 u^1 = (-u^2)^alpha, det D^2 u^2 = (-u^1)^beta on {z < 0}.

    Neither component depends on its own unknown, so the declared split
    is (0, f^i) and the own-component Lipschitz constants vanish.
    """
    if alpha <= 0 or beta <= 0:
        raise ConfigurationError("power exponents must be positive")
    f1 = Expr("^", (Expr("neg", (parse("z2"),)), const(alpha)))
    f2 = Expr("^", (Expr("neg", (parse("z1"),)), const(beta)))
    zero = const(0.0)
    return RhsSystem(
        components=(f1, f2), n=2,
        splits=((zero, f1), (zero, f2)),
        lipschitz_z=(0.0, 0.0),
        lipschitz_p=(0.0, 0.0),
    )


def _finite_value(f, x, z, p):
    """Evaluate the expression ``f`` at (x, z, p); every value must be finite.

    Evaluates with numpy's floating-point warnings off and raises
    :class:`ExpressionDomainError` on an overflowing or otherwise
    non-finite value instead.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        val = f(x, z, p)
    if not np.all(np.isfinite(val)):
        raise ExpressionDomainError("non-finite value", str(f))
    return val


def eval_f(system, i, x, z, p):
    """Evaluate f^i at (x, z, p); broadcasts over leading axes."""
    if not 1 <= i <= system.m:
        raise ConfigurationError(f"component index {i} out of 1..{system.m}")
    return _finite_value(system.components[i - 1], x, z, p)


def d_ij(system, i, j, x, z, p, h):
    """Difference quotient of f^i along the j-th unknown with step h.

    For i == j the quotient is taken on the declared non-increasing part
    of the split; h == 0 gives exactly 0.
    """
    if not (1 <= i <= system.m and 1 <= j <= system.m):
        raise ConfigurationError(f"indices ({i},{j}) out of 1..{system.m}")
    h = np.asarray(h, dtype=float)
    if np.ndim(h) == 0 and h == 0.0:
        return 0.0
    z = np.asarray(z, dtype=float)
    zh = z.copy()
    zh[..., j - 1] = zh[..., j - 1] + h
    if i == j:
        if system.splits[i - 1] is None:
            raise ConfigurationError(
                f"d_{i}{i} needs a declared split of component {i}")
        f = system.splits[i - 1][1]
    else:
        f = system.components[i - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (_finite_value(f, x, zh, p) - _finite_value(f, x, z, p)) / h
    if np.ndim(h) > 0:
        out = np.where(h == 0.0, 0.0, out)
    return out


@dataclass
class HypothesisReport:
    """Outcome of sampling-based screening over a declared box."""

    statuses: dict
    witnesses: dict
    box: dict
    samples: int
    c_f: Optional[float] = None
    lipschitz_z_estimate: tuple = ()
    lipschitz_p_estimate: tuple = ()
    quotient_sign_ok: Optional[bool] = None

    def passed(self, *names):
        return all(self.statuses.get(nm) == "pass" for nm in names)

    def to_json(self):
        def clean(v):
            if isinstance(v, np.ndarray):
                return v.tolist()
            if isinstance(v, (np.floating, np.integer)):
                return v.item()
            if isinstance(v, (list, tuple)):
                return [clean(u) for u in v]
            if isinstance(v, dict):
                return {k: clean(u) for k, u in v.items()}
            return v
        return {
            "statuses": dict(self.statuses),
            "witnesses": clean(self.witnesses),
            "box": clean(self.box),
            "samples": self.samples,
            "c_f": self.c_f,
            "lipschitz_z_estimate": clean(self.lipschitz_z_estimate),
            "lipschitz_p_estimate": clean(self.lipschitz_p_estimate),
            "quotient_sign_ok": self.quotient_sign_ok,
        }


def _box_arrays(box, n, m):
    xb = np.asarray(box["x"], dtype=float).reshape(n, 2)
    zb = np.asarray(box["z"], dtype=float).reshape(m, 2)
    pb = np.asarray(box["p"], dtype=float).reshape(n, 2)
    if np.any(xb[:, 1] < xb[:, 0]) or np.any(zb[:, 1] < zb[:, 0]) or np.any(pb[:, 1] < pb[:, 0]):
        raise ConfigurationError("box bounds must satisfy lo <= hi")
    return xb, zb, pb


def _sobol_samples(xb, zb, pb, samples, seed):
    # scipy.stats takes about half a second to import and only screening needs it
    from scipy.stats import qmc

    dim = len(xb) + len(zb) + len(pb)
    eng = qmc.Sobol(d=dim, scramble=True, seed=seed)
    # the leading `samples` points of the smallest power-of-2 block: the
    # points random(samples) gives, without its warning that only
    # power-of-2 counts keep the balance properties
    u = eng.random_base2(int(samples - 1).bit_length())[:samples]
    lo = np.concatenate([xb[:, 0], zb[:, 0], pb[:, 0]])
    hi = np.concatenate([xb[:, 1], zb[:, 1], pb[:, 1]])
    pts = lo + u * (hi - lo)
    n, m = len(xb), len(zb)
    return pts[:, :n], pts[:, n:n + m], pts[:, n + m:]


def _random_orthogonal(n, rng):
    """Product of n random Householder reflections."""
    O = np.eye(n)
    for _ in range(n):
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        O = O - 2.0 * np.outer(v, v @ O)
    return O


def _quotient_bound(f, pick, x, z, p, rng):
    """Max symmetric difference quotient of f along the axis selected by pick."""
    best = 0.0
    for h in (1e-2, 1e-3, 1e-4):
        a, b = pick(x, z, p, h)
        q = np.abs(_finite_value(f, *a) - _finite_value(f, *b)) / (2 * h)
        best = max(best, float(np.max(q)))
    return best


def check_hypotheses(system, box, samples=1024, which=None, seed=0):
    """Screen the structural conditions by quasi-random sampling.

    ``box`` declares admissible ranges: {"x": [[lo,hi]]*n, "z": ..., "p": ...}.
    ``which`` selects a subset of :data:`HYPOTHESES`.  Evaluation domain
    errors mark the affected check ``not-applicable`` with a witness.
    """
    if samples < 1:
        raise ConfigurationError("samples must be >= 1")
    which = tuple(which) if which is not None else HYPOTHESES
    unknown = set(which) - set(HYPOTHESES)
    if unknown:
        raise ConfigurationError(f"unknown hypotheses {sorted(unknown)}")
    n, m = system.n, system.m
    xb, zb, pb = _box_arrays(box, n, m)
    X, Z, P = _sobol_samples(xb, zb, pb, samples, seed)
    rng = np.random.default_rng(seed)

    statuses = {nm: "not-applicable" for nm in HYPOTHESES}
    witnesses = {}
    report = HypothesisReport(statuses=statuses, witnesses=witnesses,
                              box={"x": xb, "z": zb, "p": pb}, samples=samples)

    def record_fail(name, idx, detail):
        statuses[name] = "fail"
        witnesses[name] = {"x": X[idx].tolist(), "z": Z[idx].tolist(),
                           "p": P[idx].tolist(), **detail}

    def guarded(name, fn):
        if name not in which:
            return
        try:
            fn()
        except ExpressionDomainError as err:
            statuses[name] = "not-applicable"
            witnesses[name] = {"domain_error": str(err)}

    vals = None

    def all_values():
        nonlocal vals
        if vals is None:
            # a constant component evaluates to a scalar
            vals = np.stack([np.broadcast_to(eval_f(system, i, X, Z, P), (samples,))
                             for i in range(1, m + 1)])
        return vals

    def chk_positivity():
        v = all_values()
        if np.all(v > 0):
            statuses["positivity"] = "pass"
        else:
            i, k = np.unravel_index(int(np.argmin(v)), v.shape)
            record_fail("positivity", k, {"component": int(i + 1), "value": float(v[i, k])})

    def chk_uniform():
        v = all_values()
        cmin = float(np.min(v))
        report.c_f = cmin
        if cmin > 0:
            statuses["uniform_positivity"] = "pass"
        else:
            i, k = np.unravel_index(int(np.argmin(v)), v.shape)
            record_fail("uniform_positivity", k,
                        {"component": int(i + 1), "value": float(v[i, k])})

    def chk_split():
        ests = []
        for i in range(1, m + 1):
            sp = system.splits[i - 1]
            if sp is None:
                ests.append(None)
                continue
            f1, f2 = sp
            fi = system.components[i - 1]
            # declared split must reproduce f^i
            vi = _finite_value(fi, X, Z, P)
            resid = np.abs(_finite_value(f1, X, Z, P) + _finite_value(f2, X, Z, P) - vi)
            if np.max(resid) > 1e-12 * max(1.0, float(np.max(np.abs(vi)))):
                record_fail("own_component_split", int(np.argmax(resid)),
                            {"component": i, "split_residual": float(np.max(resid))})
                ests.append(None)
                continue
            # f^{i,1} Lipschitz in z^i: bounded symmetric quotients
            def pick(x, z, p, h, i=i):
                za = z.copy(); za[:, i - 1] += h
                zb_ = z.copy(); zb_[:, i - 1] -= h
                return (x, za, p), (x, zb_, p)
            ests.append(_quotient_bound(f1, pick, X, Z, P, rng))
            # f^{i,2} non-increasing in z^i
            h = 0.25 * (zb[i - 1, 1] - zb[i - 1, 0]) * rng.random(samples)
            Zh = Z.copy(); Zh[:, i - 1] = np.minimum(Zh[:, i - 1] + h, zb[i - 1, 1])
            dh = Zh[:, i - 1] - Z[:, i - 1]
            bad = (_finite_value(f2, X, Zh, P) - _finite_value(f2, X, Z, P) > 1e-12) & (dh > 0)
            if bad.any():
                record_fail("own_component_split", int(np.argmax(bad)),
                            {"component": i, "violation": "f^{i,2} increasing in own unknown"})
        report.lipschitz_z_estimate = tuple(ests)
        if statuses["own_component_split"] != "fail" and any(e is not None for e in ests):
            statuses["own_component_split"] = "pass"

    def chk_cross():
        ok = True
        for i in range(1, m + 1):
            fi = system.components[i - 1]
            base = _finite_value(fi, X, Z, P)
            for j in range(1, m + 1):
                if j == i:
                    continue
                h = 0.25 * (zb[j - 1, 1] - zb[j - 1, 0]) * (0.1 + 0.9 * rng.random(samples))
                Zh = Z.copy(); Zh[:, j - 1] = np.minimum(Zh[:, j - 1] + h, zb[j - 1, 1])
                dh = Zh[:, j - 1] - Z[:, j - 1]
                diff = _finite_value(fi, X, Zh, P) - base
                bad = (diff > 1e-12 * np.maximum(1.0, np.abs(base))) & (dh > 0)
                if bad.any():
                    ok = False
                    record_fail("cross_monotonicity", int(np.argmax(bad)),
                                {"component": i, "along": j, "increase": float(np.max(diff))})
        if ok and statuses["cross_monotonicity"] != "fail":
            statuses["cross_monotonicity"] = "pass"

    def chk_plip():
        ests = []
        for i in range(1, m + 1):
            fi = system.components[i - 1]
            if not fi.depends_on("p"):
                ests.append(0.0)
                continue
            axis = rng.integers(0, n, samples)
            best = 0.0
            for h in (1e-2, 1e-3, 1e-4):
                Pa, Pb = P.copy(), P.copy()
                Pa[np.arange(samples), axis] += h
                Pb[np.arange(samples), axis] -= h
                q = np.abs(_finite_value(fi, X, Z, Pa) - _finite_value(fi, X, Z, Pb)) / (2 * h)
                best = max(best, float(np.max(q)))
            ests.append(best)
        report.lipschitz_p_estimate = tuple(ests)
        statuses["gradient_lipschitz"] = "pass" if all(np.isfinite(ests)) else "fail"

    def chk_reflection():
        Xn = X.copy()
        Xn[:, 0] = -np.abs(Xn[:, 0])
        Pn = P.copy()
        Pn[:, 0] = -np.abs(Pn[:, 0])
        y1 = Xn[:, 0] + (-2 * Xn[:, 0]) * rng.random(samples)  # y1 in [x1, -x1]
        Xy = Xn.copy(); Xy[:, 0] = y1
        Pbar = Pn.copy(); Pbar[:, 0] = -Pn[:, 0]
        ok = True
        for i in range(1, m + 1):
            lhs = eval_f(system, i, Xy, Z, Pbar)
            rhs_v = eval_f(system, i, Xn, Z, Pn)
            bad = lhs < rhs_v - 1e-12 * np.maximum(1.0, np.abs(rhs_v))
            if bad.any():
                ok = False
                record_fail("reflection_comparison", int(np.argmax(bad)),
                            {"component": i, "margin": float(np.min(lhs - rhs_v))})
        if ok and statuses["reflection_comparison"] != "fail":
            statuses["reflection_comparison"] = "pass"

    def chk_evenness():
        Xa = X.copy(); Xa[:, 0] = np.abs(Xa[:, 0])
        Pa = P.copy(); Pa[:, 0] = np.abs(Pa[:, 0])
        ok = True
        for i in range(1, m + 1):
            a = all_values()[i - 1]
            b = eval_f(system, i, Xa, Z, Pa)
            bad = np.abs(a - b) > 1e-10 * np.maximum(1.0, np.abs(a))
            if bad.any():
                ok = False
                record_fail("axis_evenness", int(np.argmax(bad)),
                            {"component": i, "difference": float(np.max(np.abs(a - b)))})
        if ok and statuses["axis_evenness"] != "fail":
            statuses["axis_evenness"] = "pass"

    def chk_orthogonal():
        ok = True
        n_mats = min(16, samples)
        for _ in range(n_mats):
            O = _random_orthogonal(n, rng)
            Op = _random_orthogonal(n, rng)
            XO = X @ O.T
            PO = P @ Op.T
            for i in range(1, m + 1):
                a = all_values()[i - 1]
                b = eval_f(system, i, XO, Z, PO)
                bad = np.abs(a - b) > 1e-10 * np.maximum(1.0, np.abs(a))
                if bad.any():
                    ok = False
                    record_fail("orthogonal_invariance", int(np.argmax(bad)),
                                {"component": i, "difference": float(np.max(np.abs(a - b))),
                                 "O": O.tolist(), "O_prime": Op.tolist()})
        if ok and statuses["orthogonal_invariance"] != "fail":
            statuses["orthogonal_invariance"] = "pass"

    guarded("positivity", chk_positivity)
    guarded("uniform_positivity", chk_uniform)
    guarded("own_component_split", chk_split)
    guarded("cross_monotonicity", chk_cross)
    guarded("gradient_lipschitz", chk_plip)
    guarded("reflection_comparison", chk_reflection)
    guarded("axis_evenness", chk_evenness)
    guarded("orthogonal_invariance", chk_orthogonal)

    # sign of the difference quotients: d_ij <= 0 whenever the split and
    # cross-monotonicity checks pass
    if statuses["own_component_split"] == "pass" and statuses["cross_monotonicity"] == "pass":
        ok = True
        try:
            for i in range(1, m + 1):
                for j in range(1, m + 1):
                    if i == j and system.splits[i - 1] is None:
                        continue
                    h = (zb[j - 1, 1] - zb[j - 1, 0]) * (rng.random(samples) - 0.5)
                    h = np.clip(h, zb[j - 1, 0] - Z[:, j - 1], zb[j - 1, 1] - Z[:, j - 1])
                    q = d_ij(system, i, j, X, Z, P, h)
                    if np.any(np.asarray(q) > 1e-10):
                        ok = False
        except ExpressionDomainError:
            ok = None
        report.quotient_sign_ok = ok
    return report
