"""Command line entry point: one JSON config drives one reproducible run.

Every command reads a config file, writes its artifacts into the output
directory and finishes with a manifest listing each file with a sha256
content hash.  Outputs contain no timestamps or machine state, so a
rerun with the same config and seed reproduces them byte for byte.

Exit codes: 0 success, 1 failed certificate, 2 config validation error,
3 solver divergence.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .domains import (Ball, GeometryError, _as_unit, critical_planes, domain_from_json,
                      domain_to_json)
from .expressions import ExpressionDomainError
from .expressions import parse as parse_expr
from .gridsolve import (DivergenceError, FdParams, GridSolution, StencilGrid, _write_csv,
                        solve_system_fd, write_solution_binary, write_solution_csv)
from .movingplane import build_frame, lambda_sweep, linearize, verify_elliptic_inequality
from .radial import NoSolution, SolverDivergence, solve_coupled_radial
from .rhs import ConfigurationError, RhsSystem, check_hypotheses, power_coupled_system

COMMANDS = ("solve-radial", "solve-grid", "certify", "hypotheses",
            "sweep-trichotomy", "linearize")

_ALLOWED_KEYS = {
    "solve-radial": {"command", "alpha", "beta", "n", "R", "tol", "grid_size", "seed"},
    "solve-grid": {"command", "domain", "system", "cs", "params", "seed"},
    "certify": {"command", "domain", "system", "cs", "params", "nu", "n_lambdas",
                "fixture", "seed"},
    "hypotheses": {"command", "system", "box", "samples", "which", "seed"},
    "sweep-trichotomy": {"command", "n", "pairs", "R", "tol", "grid_size", "seed"},
    "linearize": {"command", "domain", "system", "cs", "params", "nu", "lambda", "seed"},
}


_DOMAIN_KEYS = {
    "ball": ("shape", "center", "radius"),
    "ellipse": ("shape", "center", "semi_axes"),
    "tube": ("shape", "cross_section", "half_height"),
}


class ConfigError(ValueError):
    """Config file failed validation; message carries file and line."""


def _key_line(path, key):
    """Best-effort line number of a key's first occurrence in the file."""
    try:
        with open(path) as fh:
            for ln, line in enumerate(fh, start=1):
                if f'"{key}"' in line:
                    return ln
    except OSError:
        pass
    return 0


def _finite(value):
    """True for a JSON number, not a boolean, that a float holds finitely."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _finite_entries(value):
    """True for a list, possibly nested, whose every entry is :func:`_finite`."""
    return isinstance(value, list) and all(_finite_entries(v) if isinstance(v, list)
                                           else _finite(v) for v in value)


def _must(path, key, what):
    """The config error that names ``key`` and its line: ``key`` must be ``what``."""
    return ConfigError(f"{path}:{_key_line(path, key)}: {key} must be {what}")


def load_config(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"{path}: cannot read config: {err}")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}:{err.lineno}: invalid JSON: {err.msg}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}:1: config must be a JSON object")
    cmd = cfg.get("command")
    if cmd not in COMMANDS:
        raise ConfigError(f"{path}:{_key_line(path, 'command')}: "
                          f"command must be one of {', '.join(COMMANDS)}")
    for key in cfg:
        if key not in _ALLOWED_KEYS[cmd]:
            raise ConfigError(f"{path}:{_key_line(path, key)}: "
                              f"unknown key {key!r} for command {cmd!r}")

    for key in ("alpha", "beta", "R", "tol"):
        if key in cfg and not (_finite(cfg[key]) and cfg[key] > 0):
            raise _must(path, key, "a positive finite number")
    if "lambda" in cfg and not _finite(cfg["lambda"]):
        raise _must(path, "lambda", "a finite number")
    if "nu" in cfg and not _finite_entries(cfg["nu"]):
        raise _must(path, "nu", "a list of finite numbers")
    box = cfg.get("box", {})
    if not (isinstance(box, dict) and all(map(_finite_entries, box.values()))):
        raise _must(path, "box", "an object of lists of finite numbers")
    cs = cfg.get("cs", [])
    if not (isinstance(cs, list) and all(map(_finite, cs))):
        raise _must(path, "cs", "a list of finite numbers")
    # the sweep reports each pair's product, which must fit a float too
    pairs = cfg.get("pairs", [])
    if not (isinstance(pairs, list)
            and all(isinstance(p, list) and len(p) == 2
                    and all(_finite(v) and v > 0 for v in p) and _finite(p[0] * p[1])
                    for p in pairs)):
        raise _must(path, "pairs", "a list of [alpha, beta] pairs of positive finite "
                    "numbers with a finite product")
    # the radial residual check skips three nodes at each end of the grid
    for key, least in (("seed", 0), ("n", 1), ("grid_size", 6), ("samples", 1),
                       ("n_lambdas", 2)):
        value = cfg.get(key, least)
        if not (isinstance(value, int) and _finite(value) and value >= least):
            raise _must(path, key, f"an integer >= {least} that a float64 holds")
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{path}:{_key_line(path, 'params')}: params must be a JSON object")
    _check_keys(path, params, FdParams.__dataclass_fields__, "params")
    for key, value in params.items():
        try:
            FdParams(**{key: value})
        except ValueError as err:
            raise ConfigError(f"{path}:{_key_line(path, key)}: params {err}") from None
    if "domain" in cfg:
        _check_domain(path, cfg["domain"], "domain")
    system = cfg.get("system")
    if isinstance(system, dict):
        _check_keys(path, system, ("alpha", "beta") if "alpha" in system
                    else RhsSystem.__dataclass_fields__, "system")
        for key in ("alpha", "beta"):
            if key in system and not (_finite(system[key]) and system[key] > 0):
                raise _must(path, key, "a positive finite number")
    return cfg


def _check_keys(path, obj, allowed, where):
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}:{_key_line(path, key)}: unknown {where} key {key!r}; "
                              f"allowed: {', '.join(allowed)}")


def _check_domain(path, obj, where):
    """Reject a domain that is not an object, has an unknown shape or unknown
    keys, or a number that a float does not hold finitely."""
    if not (isinstance(obj, dict) and isinstance(obj.get("shape"), str)
            and obj["shape"] in _DOMAIN_KEYS):
        raise ConfigError(f"{path}:{_key_line(path, where)}: {where} must be a JSON object "
                          f"with shape one of {', '.join(_DOMAIN_KEYS)}")
    _check_keys(path, obj, _DOMAIN_KEYS[obj["shape"]], where)
    for key in ("center", "semi_axes"):
        if key in obj and not _finite_entries(obj[key]):
            raise _must(path, key, "a list of finite numbers")
    for key in ("radius", "half_height"):
        if key in obj and not _finite(obj[key]):
            raise _must(path, key, "a finite number")
    if "cross_section" in obj:
        _check_domain(path, obj["cross_section"], "cross_section")


def _system_from_config(obj):
    if isinstance(obj, dict) and "alpha" in obj:
        return power_coupled_system(float(obj["alpha"]), float(obj["beta"]))
    if isinstance(obj, dict):
        return RhsSystem.from_json(obj)
    if isinstance(obj, list):
        return RhsSystem(components=tuple(parse_expr(c) if isinstance(c, str) else c
                                          for c in obj), n=2)
    raise ConfigError(f"cannot interpret system description {obj!r}")


def _json_dump(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


class Emitter:
    """Collects artifacts in the output directory and writes the manifest."""

    def __init__(self, out_dir, quiet):
        self.out = out_dir
        self.quiet = quiet
        self.files = []
        os.makedirs(out_dir, exist_ok=True)
        self.lock = os.path.join(out_dir, ".lock")
        try:
            fd = os.open(self.lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise ConfigError(f"output directory {out_dir} is locked by another run") from None
        with os.fdopen(fd, "w") as fh:
            fh.write("locked\n")

    def path(self, name):
        self.files.append(name)
        return os.path.join(self.out, name)

    def say(self, msg):
        if not self.quiet:
            print(msg)

    def finish(self):
        manifest = {"artifacts": {}}
        for name in self.files:
            with open(os.path.join(self.out, name), "rb") as fh:
                manifest["artifacts"][name] = hashlib.sha256(fh.read()).hexdigest()
        _json_dump(manifest, os.path.join(self.out, "manifest.json"))
        self.say(f"wrote {len(self.files)} artifacts + manifest to {self.out}")

    def release(self):
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.lock)


def _profile_csv(emit, name, profiles):
    names, cols = ["r"], [profiles[0].r]
    for i, p in enumerate(profiles):
        names += [f"u{i+1}", f"du{i+1}"]
        cols += [p.u, p.du]
    _write_csv(emit.path(name), names, cols)


def read_config(cfg):
    """The validated config with its values read into the objects the commands
    run on.  Reading writes nothing, so a value of the wrong type, shape or
    range raises here, as a config error, before the output dir is locked."""
    which, fixture = cfg.get("which"), cfg.get("fixture") == "quadratic"
    cfg = dict(cfg, params=FdParams.from_json(cfg.get("params", {})),
               nu=np.asarray(cfg.get("nu", [1.0, 0.0]), dtype=float),
               which=None if which is None else tuple(which))
    if "lambda" in cfg:
        cfg["lambda"] = float(cfg["lambda"])
    if "domain" in cfg or fixture:
        cfg["domain"] = domain_from_json(cfg.get("domain", {"shape": "ball",
                                                            "center": [0.0, 0.0],
                                                            "radius": 1.0}))
        if fixture and not isinstance(cfg["domain"], Ball):
            raise ConfigError("the quadratic fixture needs a ball domain")
        if "lambda" in cfg:
            # past the bounding box the cap is empty or reflects wholly outside
            nu = _as_unit(cfg["nu"], cfg["domain"].dimension)
            lo, hi = np.sort(cfg["domain"].bounding_box() * nu[:, None], axis=1).sum(axis=0)
            if not lo <= cfg["lambda"] <= hi:
                raise ConfigError(f"lambda = {cfg['lambda']!r} lies outside the domain's "
                                  f"extent [{lo:.6g}, {hi:.6g}] along nu")
    if "system" in cfg:
        system = cfg["system"] = _system_from_config(cfg["system"])
        cfg["cs"] = tuple(float(c) for c in cfg.get("cs", (0.0,) * system.m))
        if len(cfg["cs"]) != system.m:
            raise ConfigError(f"cs needs {system.m} boundary constants")
        if cfg["command"] in ("certify", "linearize") and not fixture:
            # d_ii is the quotient of the split's non-increasing part
            for i, split in enumerate(system.splits, 1):
                if split is None:
                    raise ConfigError(f"{cfg['command']} needs a declared split of "
                                      f"component {i} (d_{i}{i})")
        if "box" in cfg:
            cfg["box"] = {key: np.asarray(cfg["box"][key], dtype=float).reshape(rows, 2)
                          for key, rows in (("x", system.n), ("z", system.m),
                                            ("p", system.n))}
    return cfg


def _solve_pairs(cfg, pairs):
    """The dimension n and the coupled radial solve of each (alpha, beta) pair,
    at the config's n, R, tol and grid_size or their defaults."""
    n = int(cfg.get("n", 2))
    return n, [solve_coupled_radial(float(alpha), float(beta), n, R=float(cfg.get("R", 1.0)),
                                    tol=float(cfg.get("tol", 1e-9)),
                                    grid_size=int(cfg.get("grid_size", 2048)))
               for alpha, beta in pairs]


def cmd_solve_radial(cfg, emit, seed):
    alpha, beta = float(cfg["alpha"]), float(cfg["beta"])
    n, (res,) = _solve_pairs(cfg, [(alpha, beta)])
    if isinstance(res, NoSolution):
        _json_dump({"outcome": "no-solution", "reason": res.reason,
                    "drift_sign": res.drift_sign}, emit.path("summary.json"))
        emit.say(f"no radial solution: {res.reason}")
        return 0
    u1, u2 = res
    _profile_csv(emit, "profile.csv", [u1, u2])
    _json_dump({"outcome": "solution", "alpha": alpha, "beta": beta, "n": n,
                "u1_center": float(u1.u[0]), "u2_center": float(u2.u[0]),
                "R": u1.R}, emit.path("summary.json"))
    emit.say(f"radial solution: u1(0) = {u1.u[0]:.9f}, u2(0) = {u2.u[0]:.9f}")
    return 0


def _grid_solution(cfg):
    domain, system = cfg["domain"], cfg["system"]
    return domain, system, solve_system_fd(domain, system, cfg["cs"], cfg["params"])


def _sweep_counts(history):
    return {"sweeps": len(history),
            "factorizations": sum(r["factorizations"] for r in history)}


def _no_grid_solution(res, emit):
    """Write the summary of a grid solve that found no solution; exit status 0."""
    _json_dump({"outcome": "no-solution", "reason": res.reason,
                "drift_sign": res.drift_sign, **_sweep_counts(res.history)},
               emit.path("summary.json"))
    emit.say(f"no grid solution: {res.reason}")
    return 0


def cmd_solve_grid(cfg, emit, seed):
    domain, system, sol = _grid_solution(cfg)
    if isinstance(sol, NoSolution):
        return _no_grid_solution(sol, emit)
    write_solution_csv(sol, emit.path("solution.csv"))
    write_solution_binary(sol, emit.path("solution.bin"))
    _json_dump({"outcome": "solution", "domain": domain_to_json(domain),
                "system": system.to_json(), "h": sol.grid.h, "n_nodes": sol.grid.n_nodes,
                "min": [float(np.min(f)) for f in sol.fields],
                "convex": list(sol.convex), **_sweep_counts(sol.history)},
               emit.path("summary.json"))
    emit.say(f"grid solution on {sol.grid.n_nodes} nodes, "
             f"min values {[round(float(np.min(f)), 6) for f in sol.fields]}")
    return 0


def _quadratic_fixture(cfg):
    """Exact paraboloid field on the unit disk: u = |x|^2 - 1, det D^2 u = 4."""
    domain, params = cfg["domain"], cfg["params"]
    grid = StencilGrid(domain, params.h, params.stencil_width)
    u = np.sum((grid.node_xy - np.asarray(domain.center)) ** 2, axis=1) \
        - domain.radius ** 2
    sol = GridSolution(grid=grid, fields=[u], cs=(0.0,))
    sol.convex = sol.convexity_audit()
    system = RhsSystem(components=(parse_expr("4"),), n=2,
                       splits=((parse_expr("0"), parse_expr("4")),),
                       lipschitz_z=(0.0,), lipschitz_p=(0.0,))
    return domain, system, sol


def cmd_certify(cfg, emit, seed):
    if cfg.get("fixture") == "quadratic":
        domain, system, sol = _quadratic_fixture(cfg)
    else:
        domain, system, sol = _grid_solution(cfg)
        if isinstance(sol, NoSolution):
            return _no_grid_solution(sol, emit)
    nu = cfg["nu"]
    planes = critical_planes(domain, nu)
    report = lambda_sweep(sol, nu, planes, int(cfg.get("n_lambdas", 16)),
                          system=system)
    _json_dump(report.to_json(), emit.path("certificate.json"))
    emit.say(f"certificate: {'PASS' if report.passed else 'FAIL'} "
             f"({report.total_ei_violations} elliptic-inequality violations)")
    return 0 if report.passed else 1


def cmd_hypotheses(cfg, emit, seed):
    report = check_hypotheses(cfg["system"], cfg["box"],
                              samples=int(cfg.get("samples", 1024)),
                              which=cfg["which"], seed=seed)
    _json_dump(report.to_json(), emit.path("hypotheses.json"))
    n_fail = sum(1 for s in report.statuses.values() if s == "fail")
    emit.say(f"hypotheses: {n_fail} failed, "
             f"{sum(1 for s in report.statuses.values() if s == 'pass')} passed")
    return 0


def cmd_sweep_trichotomy(cfg, emit, seed):
    pairs = cfg.get("pairs", [[1, 1], [1, 2], [2, 2], [3, 3]])
    n, results = _solve_pairs(cfg, pairs)
    rows = []
    for (alpha, beta), res in zip(pairs, results):
        if isinstance(res, NoSolution):
            rows.append({"alpha": alpha, "beta": beta, "product": alpha * beta,
                         "outcome": "no-solution", "reason": res.reason})
        else:
            rows.append({"alpha": alpha, "beta": beta, "product": alpha * beta,
                         "outcome": "solution",
                         "u1_center": float(res[0].u[0]),
                         "u2_center": float(res[1].u[0])})
    _json_dump({"n": n, "threshold": n * n, "rows": rows}, emit.path("trichotomy.json"))
    path = emit.path("trichotomy.csv")
    with open(path, "w") as fh:
        fh.write("alpha,beta,product,outcome\n")
        for row in rows:
            fh.write(f"{row['alpha']},{row['beta']},{row['product']},{row['outcome']}\n")
    for row in rows:
        emit.say(f"  a={row['alpha']} b={row['beta']}: {row['outcome']}")
    return 0


def cmd_linearize(cfg, emit, seed):
    domain, system, sol = _grid_solution(cfg)
    if isinstance(sol, NoSolution):
        return _no_grid_solution(sol, emit)
    frame = build_frame(sol, cfg["nu"], cfg["lambda"])
    lin = linearize(frame, system)
    ei = verify_elliptic_inequality(lin, frame)
    _json_dump({"lambda": frame.lam, "n_nodes": int(len(frame.node_idx)),
                "quad_order": lin.quad_order, "flagged_nonpd": list(lin.n_flagged),
                "elliptic_inequality": ei}, emit.path("linearization.json"))
    _write_csv(emit.path("linearization.csv"),
               ["x", "y"] + [f"U{i+1}" for i in range(frame.m)],
               [frame.xy[:, 0], frame.xy[:, 1]] + list(frame.U))
    emit.say(f"linearized {len(frame.node_idx)} cap nodes, "
             f"{ei['total_violations']} violations")
    return 0


_RUNNERS = {
    "solve-radial": cmd_solve_radial,
    "solve-grid": cmd_solve_grid,
    "certify": cmd_certify,
    "hypotheses": cmd_hypotheses,
    "sweep-trichotomy": cmd_sweep_trichotomy,
    "linearize": cmd_linearize,
}


def main(argv=None):
    ap = argparse.ArgumentParser(prog="masym",
                                 description="determinant-equation solver runs")
    ap.add_argument("--config", required=True, help="JSON config file")
    ap.add_argument("--out", default="out", help="output directory")
    ap.add_argument("--seed", type=int, default=0, help="RNG seed")
    ap.add_argument("--quiet", action="store_true", help="suppress progress output")
    ap.add_argument("--version", action="version", version=__version__)
    args = ap.parse_args(argv)

    try:
        cfg = read_config(load_config(args.config))
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    seed = int(cfg.get("seed", args.seed))

    try:
        emit = Emitter(args.out, args.quiet)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    try:
        status = _RUNNERS[cfg["command"]](cfg, emit, seed)
        emit.finish()
        return status
    except (SolverDivergence, DivergenceError, ExpressionDomainError) as err:
        report = os.path.join(args.out, "divergence.json")
        _json_dump({"error": str(err),
                    "history": [list(hh) if isinstance(hh, (list, tuple)) else hh
                                for hh in getattr(err, "history", [])]}, report)
        print(f"solver divergence: {err} (report: {report})", file=sys.stderr)
        return 3
    except (ConfigError, ConfigurationError, GeometryError, KeyError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    finally:
        emit.release()


if __name__ == "__main__":
    sys.exit(main())
