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
import os
import re
import sys

import numpy as np

from . import __version__
from .domains import (Ball, GeometryError, _as_unit, _finite, critical_planes,
                      domain_from_json, domain_to_json)
from .expressions import ExpressionDomainError
from .expressions import parse as parse_expr
from .gridsolve import (FdParams, GridSolution, StencilGrid, _write_csv, solve_system_fd,
                        write_solution_binary, write_solution_csv)
from .movingplane import build_frame, lambda_sweep, linearize, verify_elliptic_inequality
from .radial import NoSolution, SolverDivergence, solve_coupled_radial
from .rhs import (HYPOTHESES, ConfigurationError, RhsSystem, _box_arrays, _check_coordinates,
                  _check_samples, check_hypotheses)


class ConfigError(ValueError):
    """Config file failed validation; message carries file and line."""


# a JSON string, with the colon that makes it a key, or a bracket
_JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"(\s*:)?|[][{}]')


def _key_line(path, key, section=None):
    """Best-effort line number of a key's first occurrence in the file: as a
    key of the top-level object, or, with ``section``, at or after the line
    of that top-level key, which holds it."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError:
        return 0
    if section:
        start = _key_line(path, section)
        return next((ln for ln, line in enumerate(text.split("\n"), start=1)
                     if ln >= start and f'"{key}"' in line), 0)
    depth = 0
    for token in _JSON_TOKEN.finditer(text):
        t = token.group()
        if t in ("{", "["):
            depth += 1
        elif t in ("}", "]"):
            depth -= 1
        elif depth == 1 and token.group(1) and t.startswith(f'"{key}"'):
            return text.count("\n", 0, token.start()) + 1
    return 0


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
    if not (isinstance(cmd, str) and cmd in _COMMANDS):
        raise ConfigError(f"{path}:{_key_line(path, 'command')}: "
                          f"command must be one of {', '.join(_COMMANDS)}")
    _, required, optional = _COMMANDS[cmd]
    for key in cfg:
        if key not in ("command", "seed", *required, *optional):
            raise ConfigError(f"{path}:{_key_line(path, key)}: "
                              f"unknown key {key!r} for command {cmd!r}")

    for key in ("alpha", "beta", "R", "tol"):
        if key in cfg and not _finite(cfg[key], positive=True):
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
                    and all(_finite(v, positive=True) for v in p) and _finite(p[0] * p[1])
                    for p in pairs)):
        raise _must(path, "pairs", "a list of [alpha, beta] pairs of positive finite "
                    "numbers with a finite product")
    # the radial residual check skips three nodes at each end of the grid
    for key, least in (("seed", 0), ("n", 1), ("grid_size", 6), ("samples", 1),
                       ("n_lambdas", 2)):
        value = cfg.get(key, least)
        if not (isinstance(value, int) and _finite(value) and value >= least):
            raise _must(path, key, f"an integer >= {least} that a float64 holds")
    which = cfg.get("which", [])
    if not (isinstance(which, list) and all(name in HYPOTHESES for name in which)):
        raise _must(path, "which", f"a list of names from {', '.join(HYPOTHESES)}")
    if cfg.get("fixture", "quadratic") != "quadratic":
        raise _must(path, "fixture", '"quadratic"')
    # the fixture brings its own source and boundary constant
    for key in ("system", "cs"):
        if "fixture" in cfg and key in cfg:
            raise ConfigError(f"{path}:{_key_line(path, key)}: {key}: the quadratic fixture "
                              f"takes no {key}")
    return cfg


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
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as err:
            raise ConfigError(f"cannot make output directory {out_dir}: {err.strerror}") from None
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


@contextlib.contextmanager
def _reading(path, key):
    """Report an error raised while reading ``key`` as ``path:line: key: message``,
    or as ``path:line: message`` at the line of the key the error names itself,
    searched for from ``key``'s line."""
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        if getattr(err, "key", None) is not None:
            raise ConfigError(f"{path}:{_key_line(path, err.key, key)}: {err}") from None
        what = f"missing key {err}" if isinstance(err, KeyError) else err
        raise ConfigError(f"{path}:{_key_line(path, key)}: {key}: {what}") from None


def read_config(cfg, path):
    """The validated config from ``path`` with its values read into the objects
    the commands run on.  Reading writes nothing, so a value of the wrong type,
    shape or range raises here, as a config error naming its key, before the
    output dir is locked."""
    fixture = "fixture" in cfg
    with _reading(path, "params"):
        cfg = dict(cfg, params=FdParams.from_json(cfg.get("params", {})))
    if "domain" in cfg or fixture:
        with _reading(path, "domain"):
            unit_disk = {"shape": "ball", "center": [0.0, 0.0], "radius": 1.0}
            cfg["domain"] = domain_from_json(cfg.get("domain", unit_disk))
            if fixture and not isinstance(cfg["domain"], Ball):
                raise ConfigError("the quadratic fixture needs a ball domain")
        if cfg["command"] in ("certify", "linearize"):
            with _reading(path, "nu"):
                nu = cfg["nu"] = _as_unit(cfg.get("nu", [1.0, 0.0]), cfg["domain"].dimension)
                if cfg["command"] == "certify":
                    cfg["planes"] = critical_planes(cfg["domain"], nu)
        if "lambda" in cfg:
            with _reading(path, "lambda"):
                cfg["lambda"] = float(cfg["lambda"])
                # past the bounding box the cap is empty or reflects wholly outside
                lo, hi = np.sort(cfg["domain"].bounding_box() * nu[:, None], axis=1).sum(axis=0)
                if not lo <= cfg["lambda"] <= hi:
                    raise ConfigError(f"lambda = {cfg['lambda']!r} lies outside the domain's "
                                      f"extent [{lo:.6g}, {hi:.6g}] along nu")
    if "system" in cfg:
        with _reading(path, "system"):
            system = cfg["system"] = RhsSystem.from_json(cfg["system"])
            if cfg["command"] in ("certify", "linearize") and not fixture:
                # d_ii is the quotient of the split's non-increasing part
                for i, split in enumerate(system.splits, 1):
                    if split is None:
                        raise ConfigError(f"{cfg['command']} needs a declared split of "
                                          f"component {i} (d_{i}{i})")
            if cfg["command"] == "hypotheses":
                _check_coordinates(system)
            if "domain" in cfg and system.n != cfg["domain"].dimension:
                raise ConfigError(f"system.n = {system.n} differs from the domain's "
                                  f"dimension {cfg['domain'].dimension}")
        with _reading(path, "cs"):
            cfg["cs"] = tuple(float(c) for c in cfg.get("cs", (0.0,) * system.m))
            if len(cfg["cs"]) != system.m:
                raise ConfigError(f"cs needs {system.m} boundary constants")
        if "box" in cfg:
            with _reading(path, "box"):
                cfg["box"] = dict(zip("xzp", _box_arrays(cfg["box"], system.n, system.m)))
    if "samples" in cfg:
        with _reading(path, "samples"):
            _check_samples(cfg["samples"])
    cmd = cfg["command"]
    for key in () if fixture else _COMMANDS[cmd][1]:
        if key not in cfg:
            raise ConfigError(f"{path}: missing key {key!r} for command {cmd!r}")
    return cfg


def _given(cfg, *keys):
    """The ``keys`` the config gives, as keywords; the others keep the library's defaults."""
    return {key: cfg[key] for key in keys if key in cfg}


def _no_solution(res, emit, solver, **counts):
    """Write the summary of a solve that found no solution; exit status 0."""
    _json_dump({"outcome": "no-solution", "reason": res.reason,
                "drift_sign": res.drift_sign, **counts}, emit.path("summary.json"))
    emit.say(f"no {solver} solution: {res.reason}")
    return 0


def _solve_pairs(cfg, pairs):
    """The dimension n and the coupled radial solve of each (alpha, beta) pair,
    at the config's n, R, tol and grid_size or their defaults."""
    n = cfg.get("n", 2)
    return n, [solve_coupled_radial(float(alpha), float(beta), n,
                                    **_given(cfg, "R", "tol", "grid_size"))
               for alpha, beta in pairs]


def cmd_solve_radial(cfg, emit, seed):
    alpha, beta = float(cfg["alpha"]), float(cfg["beta"])
    n, (res,) = _solve_pairs(cfg, [(alpha, beta)])
    if isinstance(res, NoSolution):
        return _no_solution(res, emit, "radial")
    u1, u2 = res
    _profile_csv(emit, "profile.csv", [u1, u2])
    _json_dump({"outcome": "solution", "alpha": alpha, "beta": beta, "n": n,
                "u1_center": float(u1.u[0]), "u2_center": float(u2.u[0]),
                "R": u1.R}, emit.path("summary.json"))
    emit.say(f"radial solution: u1(0) = {u1.u[0]:.9f}, u2(0) = {u2.u[0]:.9f}")
    return 0


def _grid_solution(cfg):
    return solve_system_fd(cfg["domain"], cfg["system"], cfg["cs"], cfg["params"])


def _sweep_counts(history):
    return {"sweeps": len(history),
            "factorizations": sum(r["factorizations"] for r in history)}


def cmd_solve_grid(cfg, emit, seed):
    sol = _grid_solution(cfg)
    if isinstance(sol, NoSolution):
        return _no_solution(sol, emit, "grid", **_sweep_counts(sol.history))
    write_solution_csv(sol, emit.path("solution.csv"))
    write_solution_binary(sol, emit.path("solution.bin"))
    _json_dump({"outcome": "solution", "domain": domain_to_json(cfg["domain"]),
                "system": cfg["system"].to_json(), "h": sol.grid.h, "n_nodes": sol.grid.n_nodes,
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
    system = RhsSystem(components=(parse_expr("4"),), n=2,
                       splits=((parse_expr("0"), parse_expr("4")),),
                       lipschitz_z=(0.0,), lipschitz_p=(0.0,))
    return system, sol


def cmd_certify(cfg, emit, seed):
    if "fixture" in cfg:
        system, sol = _quadratic_fixture(cfg)
    else:
        system, sol = cfg["system"], _grid_solution(cfg)
        if isinstance(sol, NoSolution):
            return _no_solution(sol, emit, "grid", **_sweep_counts(sol.history))
    report = lambda_sweep(sol, cfg["nu"], cfg["planes"], system=system,
                          **_given(cfg, "n_lambdas"))
    _json_dump(report.to_json(), emit.path("certificate.json"))
    emit.say(f"certificate: {'PASS' if report.passed else 'FAIL'} "
             f"({report.total_ei_violations} elliptic-inequality violations)")
    return 0 if report.passed else 1


def cmd_hypotheses(cfg, emit, seed):
    report = check_hypotheses(cfg["system"], cfg["box"], which=cfg.get("which"), seed=seed,
                              **_given(cfg, "samples"))
    _json_dump(report.to_json(), emit.path("hypotheses.json"))
    statuses = list(report.statuses.values())
    emit.say(f"hypotheses: {statuses.count('fail')} failed, {statuses.count('pass')} passed")
    return 0


def cmd_sweep_trichotomy(cfg, emit, seed):
    pairs = cfg.get("pairs", [[1, 1], [1, 2], [2, 2], [3, 3]])
    n, results = _solve_pairs(cfg, pairs)
    rows = [{"alpha": alpha, "beta": beta, "product": alpha * beta} for alpha, beta in pairs]
    for row, res in zip(rows, results):
        if isinstance(res, NoSolution):
            row.update(outcome="no-solution", reason=res.reason)
        else:
            row.update(outcome="solution", u1_center=float(res[0].u[0]),
                       u2_center=float(res[1].u[0]))
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
    sol = _grid_solution(cfg)
    if isinstance(sol, NoSolution):
        return _no_solution(sol, emit, "grid", **_sweep_counts(sol.history))
    frame = build_frame(sol, cfg["nu"], cfg["lambda"])
    lin = linearize(frame, cfg["system"])
    ei = verify_elliptic_inequality(lin, frame)
    _json_dump({"lambda": frame.lam, "n_nodes": int(len(frame.node_idx)),
                "flagged_nonpd": list(lin.n_flagged),
                "elliptic_inequality": ei}, emit.path("linearization.json"))
    _write_csv(emit.path("linearization.csv"),
               ["x", "y"] + [f"U{i+1}" for i in range(frame.m)],
               [frame.xy[:, 0], frame.xy[:, 1]] + list(frame.U))
    emit.say(f"linearized {len(frame.node_idx)} cap nodes, "
             f"{ei['total_violations']} violations")
    return 0


# each command's runner, the keys it cannot run without (certify on the
# quadratic fixture needs none) and its other keys besides command and seed
_COMMANDS = {
    "solve-radial": (cmd_solve_radial, ("alpha", "beta"), ("n", "R", "tol", "grid_size")),
    "solve-grid": (cmd_solve_grid, ("domain", "system"), ("cs", "params")),
    "certify": (cmd_certify, ("domain", "system"), ("cs", "params", "nu", "n_lambdas",
                                                    "fixture")),
    "hypotheses": (cmd_hypotheses, ("system", "box"), ("samples", "which")),
    "sweep-trichotomy": (cmd_sweep_trichotomy, (), ("n", "pairs", "R", "tol", "grid_size")),
    "linearize": (cmd_linearize, ("domain", "system", "lambda"), ("cs", "params", "nu")),
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
        cfg = read_config(load_config(args.config), args.config)
        emit = Emitter(args.out, args.quiet)
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    seed = int(cfg.get("seed", args.seed))
    try:
        status = _COMMANDS[cfg["command"]][0](cfg, emit, seed)
        emit.finish()
        return status
    except (SolverDivergence, ExpressionDomainError) as err:
        report = os.path.join(args.out, "divergence.json")
        _json_dump({"error": str(err), "history": getattr(err, "history", [])}, report)
        print(f"solver divergence: {err} (report: {report})", file=sys.stderr)
        return 3
    except (ConfigError, ConfigurationError, GeometryError, KeyError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    finally:
        emit.release()


if __name__ == "__main__":
    sys.exit(main())
