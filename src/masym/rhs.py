"""Right-hand-side systems f = (f^1, ..., f^m) and their structural checks.

A system couples the equations through the unknown vector z.  Besides
evaluation, this module computes the one-sided difference quotients used
by the diagnostic linearization and screens a system, by quasi-random
sampling over a user-declared box, for the structural conditions the
symmetry results need: positivity, component monotonicity, Lipschitz
bounds, and the reflection/orthogonal invariances of the source term.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .domains import _finite, _known_keys
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
    """System is missing structure required by the requested operation, or a
    value of it is out of range; ``key`` names the value's JSON key, or is None."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


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
    constants, each None or a finite number >= 0, override the sampled
    estimates in downstream modules.  ``n`` is an integer >= 1, and every
    expression uses only x1..xn, p1..pn and z1..zm.
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
        if len(splits) != m:
            raise ConfigurationError("splits length must match component count")
        if not all(s is None or len(s) == 2 for s in splits):
            raise ConfigurationError("each split must be null or a pair of expressions")
        splits = tuple(None if s is None else (_as_expr(s[0]), _as_expr(s[1])) for s in splits)
        object.__setattr__(self, "splits", splits)
        for name in ("lipschitz_z", "lipschitz_p"):
            v = getattr(self, name)
            v = (None,) * m if v is None else tuple(v)
            if len(v) != m:
                raise ConfigurationError(f"{name} length must match component count")
            if not all(c is None or (_finite(c) and c >= 0) for c in v):
                raise ConfigurationError(f"{name} entries must be null or finite numbers "
                                         f">= 0, got {list(v)!r}", key=name)
            object.__setattr__(self, name, v)
        if not (isinstance(self.n, numbers.Integral) and not isinstance(self.n, bool)
                and self.n >= 1):
            raise ConfigurationError(f"n must be an integer >= 1, got {self.n!r}")
        for i, (c, split) in enumerate(zip(comps, splits), 1):
            for e in (c, *(split or ())):
                for name in sorted(e.variables()):
                    if int(name[1:]) > (m if name[0] == "z" else self.n):
                        raise ConfigurationError(f"component {i} uses {name}, out of range "
                                                 f"for n = {self.n} and m = {m}")

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
        """The system of a JSON object of the fields (``n`` and ``components``
        required), of a power pair ``{"alpha", "beta"}`` or of a list of
        components with n = 2.  Raises :class:`ConfigurationError`, its ``key``
        naming an unknown key or a value out of range, for anything else, and
        ``KeyError`` for a missing key."""
        if isinstance(obj, list):
            return RhsSystem(components=tuple(obj), n=2)
        if not isinstance(obj, dict):
            raise ConfigurationError(f"cannot interpret system description {obj!r}")
        _known_keys(obj, ("alpha", "beta") if "alpha" in obj else RhsSystem.__dataclass_fields__,
                    "system", ConfigurationError)
        if "alpha" in obj:
            return power_coupled_system(obj["alpha"], obj["beta"])
        return RhsSystem(components=tuple(obj["components"]), n=obj["n"],
                         splits=obj.get("splits") or None,
                         lipschitz_z=obj.get("lipschitz_z"), lipschitz_p=obj.get("lipschitz_p"))


def power_coupled_system(alpha, beta):
    """det D^2 u^1 = (-u^2)^alpha, det D^2 u^2 = (-u^1)^beta on {z < 0}.

    Neither component depends on its own unknown, so the declared split
    is (0, f^i) and the own-component Lipschitz constants vanish.  An
    exponent that is not a positive finite number raises a
    :class:`ConfigurationError` naming it.
    """
    for key, value in (("alpha", alpha), ("beta", beta)):
        if not _finite(value, positive=True):
            raise ConfigurationError(f"{key} must be a positive finite number", key=key)
    f1 = Expr("^", (Expr("neg", (parse("z2"),)), const(alpha)))
    f2 = Expr("^", (Expr("neg", (parse("z1"),)), const(beta)))
    zero = const(0.0)
    return RhsSystem(
        components=(f1, f2), n=2,
        splits=((zero, f1), (zero, f2)),
        lipschitz_z=(0.0, 0.0),
        lipschitz_p=(0.0, 0.0),
    )


def eval_f(system, i, x, z, p):
    """Evaluate f^i at (x, z, p); broadcasts over leading axes."""
    if not 1 <= i <= system.m:
        raise ConfigurationError(f"component index {i} out of 1..{system.m}")
    return system.components[i - 1](x, z, p)


def d_ij(system, i, j, x, z, p, h):
    """Difference quotient of f^i along the j-th unknown with step h.

    For i == j the quotient is taken on the declared non-increasing part
    of the split; h == 0 gives exactly 0.  A source that does not read z_j
    is evaluated once: its quotient is (v - v) / h, the zeros the two
    evaluations would give, signs included.
    """
    if not (1 <= i <= system.m and 1 <= j <= system.m):
        raise ConfigurationError(f"indices ({i},{j}) out of 1..{system.m}")
    h = np.asarray(h, dtype=float)
    if np.ndim(h) == 0 and h == 0.0:
        return 0.0
    if i == j:
        if system.splits[i - 1] is None:
            raise ConfigurationError(
                f"d_{i}{i} needs a declared split of component {i}")
        f = system.splits[i - 1][1]
    else:
        f = system.components[i - 1]
    z = np.asarray(z, dtype=float)
    if f"z{j}" in f.variables():
        zh = z.copy()
        zh[..., j - 1] = zh[..., j - 1] + h
        diff = f(x, zh, p) - f(x, z, p)
    else:
        # f is exactly constant along z_j: one evaluation, the same difference
        v = f(x, z, p)
        diff = v - v
    return np.divide(diff, h, out=np.zeros(np.broadcast(diff, h).shape), where=h != 0.0)


@dataclass
class HypothesisReport:
    """Outcome of sampling-based screening over a declared box."""

    statuses: dict
    witnesses: dict
    box: dict  # [lo, hi] rows per variable: {"x": [[lo, hi]] * n, "z": ..., "p": ...}
    samples: int
    c_f: Optional[float] = None
    lipschitz_z_estimate: tuple = ()
    lipschitz_p_estimate: tuple = ()
    quotient_sign_ok: Optional[bool] = None

    def passed(self, *names):
        return all(self.statuses.get(nm) == "pass" for nm in names)

    def to_json(self):
        return asdict(self)


def _box_arrays(box, n, m):
    """The x, z and p rows of ``box`` as (n, 2), (m, 2) and (n, 2) arrays."""
    rows = [np.asarray(box[k], dtype=float).reshape(d, 2) for k, d in zip("xzp", (n, m, n))]
    if any(np.any(r[:, 1] < r[:, 0]) for r in rows):
        raise ConfigurationError("box bounds must satisfy lo <= hi")
    return rows


_BITS = 30  # digits of a Sobol' coordinate: at most 2 ** 30 points
_HIGH = np.uint64(1) << np.arange(_BITS - 1, -1, -1, dtype=np.uint64)  # 2 ** 29, ..., 1


def _parity(x):
    """The parity of each entry's 32 low bits, by an XOR-fold."""
    for shift in (16, 8, 4, 2, 1):
        x = x ^ (x >> shift)
    return x & 1


# Joe & Kuo's primitive polynomials and initial direction numbers, the
# first 32 rows of the table that scipy ships, whose vinit rows pad these
# with zeros to 18 entries; row r > 0 holds one number per degree of its
# polynomial.  The screen draws 2n + m coordinates, one row each, so 32
# rows hold a plane system of up to 28 components.
_SOBOL_POLY = (1, 3, 7, 11, 13, 19, 25, 37, 41, 47, 55, 59, 61, 67, 91, 97, 103, 109, 115,
               131, 137, 143, 145, 157, 167, 171, 185, 191, 193, 203, 211, 213)
_SOBOL_VINIT = (
    (1,), (1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3), (1, 3, 5, 13), (1, 1, 5, 5, 17),
    (1, 1, 5, 5, 5), (1, 1, 7, 11, 19), (1, 1, 5, 1, 1), (1, 1, 1, 3, 11), (1, 3, 5, 5, 31),
    (1, 3, 3, 9, 7, 49), (1, 1, 1, 15, 21, 21), (1, 3, 1, 13, 27, 49), (1, 1, 1, 15, 7, 5),
    (1, 3, 1, 15, 13, 25), (1, 1, 5, 5, 19, 61), (1, 3, 7, 11, 23, 15, 103),
    (1, 3, 7, 13, 13, 15, 69), (1, 1, 3, 13, 7, 35, 63), (1, 3, 5, 9, 1, 25, 53),
    (1, 3, 1, 13, 9, 35, 107), (1, 3, 1, 5, 27, 61, 31), (1, 1, 5, 11, 19, 41, 61),
    (1, 3, 5, 3, 3, 13, 69), (1, 1, 7, 13, 1, 19, 1), (1, 3, 7, 5, 13, 19, 59),
    (1, 1, 3, 9, 25, 29, 41), (1, 3, 5, 13, 23, 1, 55), (1, 3, 7, 3, 13, 59, 17))


@functools.lru_cache(maxsize=None)
def _sobol_directions(d):
    """The (d, 30) direction numbers of the first d rows of Joe & Kuo's
    table, each a 30-bit fraction, by scipy's recurrence (Bratley & Fox)."""
    rows = [[1] * _BITS]
    for p, init in zip(_SOBOL_POLY[1:d], _SOBOL_VINIT[1:d]):
        deg = p.bit_length() - 1
        row = list(init)
        for j in range(deg, _BITS):
            new = row[j - deg]
            for k in range(deg):
                if p >> (deg - 1 - k) & 1:
                    new ^= row[j - k - 1] << (k + 1)
            row.append(new)
        rows.append(row)
    return np.array(rows, dtype=np.uint64) * _HIGH


def _check_coordinates(system):
    """Raise a :class:`ConfigurationError` unless the screen's 2n + m
    coordinates fit the rows of the committed Sobol' table."""
    d = 2 * system.n + system.m
    if d > len(_SOBOL_POLY):
        raise ConfigurationError(f"the hypotheses screen samples 2n + m = {d} coordinates; "
                                 f"its Sobol' table holds {len(_SOBOL_POLY)}")


def _check_samples(samples):
    """Raise a :class:`ConfigurationError` naming ``samples`` unless it is a
    count from 1 to 2 ** 30, the points the Sobol' sequence holds."""
    if not 1 <= samples <= 2 ** _BITS:
        raise ConfigurationError(f"samples must be from 1 to 2**{_BITS}, the points a Sobol' "
                                 f"sequence holds, got {samples}", key="samples")


def _sobol_samples(xb, zb, pb, samples, seed):
    """The first ``samples`` points of a scrambled Sobol' sequence, scaled to the box.

    The sequence takes Joe & Kuo's direction numbers ("Constructing Sobol
    sequences with better two-dimensional projections", SIAM J. Sci.
    Comput. 30, 2008) and scrambles them with a random linear matrix
    scramble plus a digital shift (Matousek, "On the L2-discrepancy for
    anchored boxes", J. Complexity 14, 1998), drawn from
    ``np.random.default_rng(seed)``.  The unit-cube points equal those of
    ``scipy.stats.qmc.Sobol(d, scramble=True, seed=seed).random_base2(k)``,
    bit for bit, for the smallest power-of-2 block 2 ** k that holds them.
    """
    d = len(xb) + len(zb) + len(pb)
    rng = np.random.default_rng(seed)
    shift = rng.integers(2, size=(d, _BITS), dtype=np.uint32) @ _HIGH[::-1]
    ltm = np.tril(rng.integers(2, size=(d, _BITS, _BITS), dtype=np.uint32))
    ltm[:, range(_BITS), range(_BITS)] = 1
    # bit 29 - r of a scrambled direction number is the parity of the
    # number and row r of its dimension's matrix, read as 30 bits
    rows = ltm @ _HIGH
    v = _HIGH @ _parity(rows[:, :, None] & _sobol_directions(d)[:, None, :])
    table = np.vstack([shift, v.T]).astype(np.uint32)
    # point i is the shift XOR the direction numbers of i's Gray code: point
    # i - 1 XOR the number at the count of trailing zero bits of i, table
    # row ctz(i) + 1, the binary exponent of i & -i
    i = np.arange(1, samples)
    at = np.concatenate([[0], np.frexp(i & -i)[1]])
    u = np.bitwise_xor.accumulate(table[at], axis=0) * 2.0 ** -_BITS
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


def _quotient_bound(f, x, z, p, var, col):
    """Max symmetric difference quotient of f along column ``col`` of ``var``
    ("z" or "p"), one column for every sample or one per sample, at each of
    the steps 1e-2, 1e-3 and 1e-4; the sample where the last one peaks; and
    its rounding error, eps max |f| / 1e-4 over the values it differences."""
    rows = np.arange(len(x))
    bounds = []
    for h in (1e-2, 1e-3, 1e-4):
        ends = []
        for step in (h, -h):
            args = {"x": x, "z": z, "p": p}
            args[var] = args[var].copy()
            args[var][rows, col] += step
            ends.append(f(**args))
        q = np.abs(ends[0] - ends[1]) / (2 * h)
        bounds.append(float(np.max(q)))
    return bounds, int(np.argmax(q)), np.finfo(float).eps * float(np.max(np.abs(ends))) / h


def _step_up(z, zb, j, frac):
    """z with unknown j moved up by ``frac`` quarter widths of its box row,
    capped at the box, and the steps taken."""
    zh = z.copy()
    zh[:, j] = np.minimum(z[:, j] + 0.25 * (zb[j, 1] - zb[j, 0]) * frac, zb[j, 1])
    return zh, zh[:, j] - z[:, j]


def check_hypotheses(system, box, samples=1024, which=None, seed=0):
    """Screen the structural conditions by quasi-random sampling.

    ``box`` declares admissible ranges: {"x": [[lo,hi]]*n, "z": ..., "p": ...}.
    ``samples`` runs from 1 to 2 ** 30, the points of a scrambled Sobol'
    sequence (:func:`_sobol_samples`) in the system's 2n + m coordinates,
    at most 32, the rows of the committed direction table.  ``which``
    selects a subset of :data:`HYPOTHESES`; the others stay
    ``not-applicable``.  A selected
    check passes unless a sample fails it, and then reports a witness
    sample.  An evaluation domain error makes the check ``not-applicable``
    with the error as witness, and ``own_component_split`` is
    ``not-applicable`` when no split is declared.

    A Lipschitz bound (``gradient_lipschitz``, and the Lipschitz part of
    a declared split) is the largest symmetric difference quotient at the
    steps 1e-2, 1e-3 and 1e-4; the check fails when the 1e-4 bound exceeds
    twice the 1e-2 bound by more than its rounding error, eps max |f| / 1e-4
    over the sampled values, so ``1e14 + p1`` passes.  Growth shows only
    where a sample lies within about a step of the singularity: over the
    unit p box ``1 + abs(p1) ^ 0.5`` fails at 1,024 and 10,000 samples,
    but at 64 to 256 samples it passes for most seeds.

    An expression raises or returns finite values, so one that does not
    read a variable is exactly constant along it.  A check along such a
    variable holds without evaluating it again: the reflection, evenness
    and orthogonal checks of a component that reads neither x nor p, the
    split parts and cross pairs that do not read the unknown they are
    stepped along.  Such a check still draws its random numbers, and an
    evaluation at the samples raises whatever the skipped ones would, so
    the report is the one every evaluation gives.
    """
    _check_samples(samples)
    _check_coordinates(system)
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
                              box={"x": xb.tolist(), "z": zb.tolist(), "p": pb.tolist()},
                              samples=samples)

    def record_fail(name, idx, detail):
        statuses[name] = "fail"
        witnesses[name] = {"x": X[idx].tolist(), "z": Z[idx].tolist(),
                           "p": P[idx].tolist(), **detail}

    vals = None
    # the components that the x and p checks move
    moves = [fi.depends_on("x") or fi.depends_on("p") for fi in system.components]

    def all_values():
        nonlocal vals
        if vals is None:
            # a constant component evaluates to a scalar
            vals = np.stack([np.broadcast_to(eval_f(system, i, X, Z, P), (samples,))
                             for i in range(1, m + 1)])
        return vals

    def lipschitz(name, i, f, var, col):
        """The quotient bound of f; ``name`` fails where it grows as the step shrinks."""
        bounds, k, rounding = _quotient_bound(f, X, Z, P, var, col)
        if bounds[2] > 2.0 * bounds[0] + rounding:
            record_fail(name, k, {"component": i, "bounds": bounds})
        return max(bounds)

    def compare(name, Xt, Pt, O=None, Op=None):
        """``name`` fails where f^i(Xt, Z, Pt) differs from f^i(X, Z, P)."""
        for i in range(1, m + 1):
            a = all_values()[i - 1]
            if not moves[i - 1]:
                continue
            diff = np.abs(a - eval_f(system, i, Xt, Z, Pt))
            bad = diff > 1e-10 * np.maximum(1.0, np.abs(a))
            if bad.any():
                rot = {} if O is None else {"O": O.tolist(), "O_prime": Op.tolist()}
                record_fail(name, int(np.argmax(bad)),
                            {"component": i, "difference": float(np.max(diff)), **rot})

    def chk_positivity(name):
        # on finite samples, every f^i > 0 is min f^i = c_f > 0
        v = all_values()
        if name == "uniform_positivity":
            report.c_f = float(np.min(v))
        i, k = np.unravel_index(int(np.argmin(v)), v.shape)
        if v[i, k] <= 0:
            record_fail(name, k, {"component": int(i + 1), "value": float(v[i, k])})

    def chk_split(name):
        ests = []
        for i, (fi, sp) in enumerate(zip(system.components, system.splits), 1):
            if sp is None:
                ests.append(None)
                continue
            f1, f2 = sp
            # declared split must reproduce f^i
            vi = fi(X, Z, P)
            resid = np.abs(f1(X, Z, P) + f2(X, Z, P) - vi)
            if np.max(resid) > 1e-12 * max(1.0, float(np.max(np.abs(vi)))):
                record_fail(name, int(np.argmax(resid)),
                            {"component": i, "split_residual": float(np.max(resid))})
                ests.append(None)
                continue
            # f^{i,1} Lipschitz in z^i, f^{i,2} non-increasing in z^i
            zi = f"z{i}"
            ests.append(lipschitz(name, i, f1, "z", i - 1) if zi in f1.variables() else 0.0)
            frac = rng.random(samples)
            if zi not in f2.variables():
                continue
            Zh, dh = _step_up(Z, zb, i - 1, frac)
            bad = (f2(X, Zh, P) - f2(X, Z, P) > 1e-12) & (dh > 0)
            if bad.any():
                record_fail(name, int(np.argmax(bad)),
                            {"component": i, "violation": "f^{i,2} increasing in own unknown"})
        report.lipschitz_z_estimate = tuple(ests)
        if all(sp is None for sp in system.splits):
            statuses[name] = "not-applicable"

    def chk_cross(name):
        for i, fi in enumerate(system.components, 1):
            base = fi(X, Z, P)
            for j in range(1, m + 1):
                if j == i:
                    continue
                frac = rng.random(samples)
                if f"z{j}" not in fi.variables():
                    continue
                Zh, dh = _step_up(Z, zb, j - 1, 0.1 + 0.9 * frac)
                diff = fi(X, Zh, P) - base
                bad = (diff > 1e-12 * np.maximum(1.0, np.abs(base))) & (dh > 0)
                if bad.any():
                    record_fail(name, int(np.argmax(bad)),
                                {"component": i, "along": j, "increase": float(np.max(diff))})

    def chk_plip(name):
        report.lipschitz_p_estimate = tuple(
            lipschitz(name, i, fi, "p", rng.integers(0, n, samples))
            if fi.depends_on("p") else 0.0
            for i, fi in enumerate(system.components, 1))

    def chk_reflection(name):
        Xn = X.copy()
        Xn[:, 0] = -np.abs(Xn[:, 0])
        Pn = P.copy()
        Pn[:, 0] = -np.abs(Pn[:, 0])
        y1 = Xn[:, 0] + (-2 * Xn[:, 0]) * rng.random(samples)  # y1 in [x1, -x1]
        Xy = Xn.copy(); Xy[:, 0] = y1
        Pbar = Pn.copy(); Pbar[:, 0] = -Pn[:, 0]
        for i in range(1, m + 1):
            if not moves[i - 1]:
                if vals is None:
                    eval_f(system, i, X, Z, P)  # raises where the skipped evaluations would
                continue
            lhs = eval_f(system, i, Xy, Z, Pbar)
            rhs_v = eval_f(system, i, Xn, Z, Pn)
            bad = lhs < rhs_v - 1e-12 * np.maximum(1.0, np.abs(rhs_v))
            if bad.any():
                record_fail(name, int(np.argmax(bad)),
                            {"component": i, "margin": float(np.min(lhs - rhs_v))})

    def chk_evenness(name):
        Xa = X.copy(); Xa[:, 0] = np.abs(Xa[:, 0])
        Pa = P.copy(); Pa[:, 0] = np.abs(Pa[:, 0])
        compare(name, Xa, Pa)

    def chk_orthogonal(name):
        for _ in range(min(16, samples)):
            O = _random_orthogonal(n, rng)
            Op = _random_orthogonal(n, rng)
            # compare reads the moved samples only for components that move
            Xt, Pt = (X @ O.T, P @ Op.T) if any(moves) else (None, None)
            compare(name, Xt, Pt, O, Op)

    checks = {"positivity": chk_positivity, "uniform_positivity": chk_positivity,
              "own_component_split": chk_split, "cross_monotonicity": chk_cross,
              "gradient_lipschitz": chk_plip, "reflection_comparison": chk_reflection,
              "axis_evenness": chk_evenness, "orthogonal_invariance": chk_orthogonal}
    for name in HYPOTHESES:
        if name not in which:
            continue
        statuses[name] = "pass"
        try:
            checks[name](name)
        except ExpressionDomainError as err:
            statuses[name] = "not-applicable"
            witnesses[name] = {"domain_error": str(err)}

    # sign of the difference quotients: d_ij <= 0 whenever the split and
    # cross-monotonicity checks pass
    if statuses["own_component_split"] == "pass" and statuses["cross_monotonicity"] == "pass":
        report.quotient_sign_ok = True
        try:
            for i in range(1, m + 1):
                for j in range(1, m + 1):
                    if i == j and system.splits[i - 1] is None:
                        continue
                    h = (zb[j - 1, 1] - zb[j - 1, 0]) * (rng.random(samples) - 0.5)
                    h = np.clip(h, zb[j - 1, 0] - Z[:, j - 1], zb[j - 1, 1] - Z[:, j - 1])
                    if np.any(d_ij(system, i, j, X, Z, P, h) > 1e-10):
                        report.quotient_sign_ok = False
        except ExpressionDomainError:
            report.quotient_sign_ok = None
    return report
