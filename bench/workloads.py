"""The four workloads: their seeded inputs, set-up, ops and reference checks.

Each reference is derived from the theory rather than from what the
program printed before: the radial oracle for the coupled disk solve,
radial symmetry of the disk solution for the moving-plane sweeps, 1-D
root-finding for the level-set planes, and the trichotomy (no radial
solution exactly when alpha * beta = n^2) for the radial screen.

An op is ``Op(name, run, check)``: ``run()`` is the timed call into the
program, ``check(result)`` returns (ok, reason, detail) and is not timed.
An op marked ``known_failure`` fails on the program as it stands (its
check reports why); the runner leaves such ops out unless it is asked
for them, so that a default run is one on which no op fails.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import brentq

import masym.cli
from masym import (Ball, FdParams, GridSolution, SmoothLevelSet, StencilGrid,
                   critical_planes, lambda_sweep, ma_operator_discrete,
                   power_coupled_system, read_solution_binary,
                   solve_coupled_radial, solve_system_fd, stencil_directions)

DISK = Ball(center=(0.0, 0.0), radius=1.0)
H = 1.0 / 64.0
WIDTH = 2
GRID_TOL = 1e-6      # |MA_h(u_i) - f_i| on the solved fields
ORACLE_TOL = 5e-3    # L-inf error against the radial oracle (criterion 02)
# critical plane positions against 1-D root-finding: ten times the default
# resolution of critical_planes, 1e-9 of the bounding-box diameter (~3e-9)
PLANE_TOL = 3e-8
BALL_PLANE_TOL = 1e-12
HYP_BOX = {"x": [[-1.0, 1.0], [-1.0, 1.0]],
           "z": [[-2.0, -0.1], [-2.0, -0.1]],
           "p": [[-1.0, 1.0], [-1.0, 1.0]]}


@dataclass
class Op:
    name: str
    run: Callable
    check: Callable
    known_failure: bool = False


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def _median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _grid_probes(sol):
    """Benchmark-side timings of the grid build and of the public operator."""

    def build():
        grid = StencilGrid(DISK, H, WIDTH)
        for p, q in stencil_directions(WIDTH):
            grid.arms((p, q))
            grid.arms((-p, -q))

    def operator():
        for field, c in zip(sol.fields, sol.cs):
            ma_operator_discrete(sol.grid, field, c=c)

    return {"grid_build_s": _median_time(build, 3),
            "operator_eval_s": _median_time(operator, 5) / sol.m}


class Workload:
    """Seeded inputs, set-up, one pass of ops, and workload-level figures."""

    name = ""

    def __init__(self, seed, workdir, recorder=None):
        self.seed = seed
        self.workdir = workdir
        self.recorder = recorder
        self.rng = np.random.default_rng(seed)

    def inputs(self):
        return {}

    def setup(self):
        pass

    def ops(self, traced):
        raise NotImplementedError

    def after_op(self):
        pass

    def summary(self, records):
        """Workload-level figures: name -> (value, unit)."""
        return {}

    def probes(self):
        return {}


class CliWorkload(Workload):
    """Ops that are CLI runs; each gets a fresh output directory."""

    def _config(self, name, cfg):
        path = os.path.join(self.workdir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh, indent=2)
        return path

    @property
    def out(self):
        return os.path.join(self.workdir, "cli-out")

    def _cli(self, config):
        argv = ["--config", config, "--out", self.out, "--seed", str(self.cli_seed),
                "--quiet"]
        return lambda: masym.cli.main(argv)

    def after_op(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def _read(self, name):
        with open(os.path.join(self.out, name)) as fh:
            return json.load(fh)

    @property
    def cli_seed(self):
        return self.seed


class CoupledDisk(CliWorkload):
    name = "coupled-disk"

    def setup(self):
        self.config = self._config("solve-grid", {
            "command": "solve-grid",
            "domain": {"shape": "ball", "center": [0.0, 0.0], "radius": 1.0},
            "system": {"alpha": 1.0, "beta": 1.0}, "cs": [0.0, 0.0],
            "params": {"h": H, "stencil_width": WIDTH}})
        self.oracle = solve_coupled_radial(1.0, 1.0, 2)
        self.digest = None
        self.solution = None

    def ops(self, traced):
        return [Op("solve-grid", self._cli(self.config), self._check)]

    def _check(self, code):
        if code != 0:
            return False, f"exit code {code}, expected 0", {}
        detail = {"artifact_bytes": _dir_bytes(self.out)}
        convex = self._read("summary.json")["convex"]
        sol = read_solution_binary(os.path.join(self.out, "solution.bin"), DISK)
        self.solution = sol
        u1, u2 = sol.fields
        resid = max(float(np.max(np.abs(ma_operator_discrete(sol.grid, u1) + u2))),
                    float(np.max(np.abs(ma_operator_discrete(sol.grid, u2) + u1))))
        r = np.linalg.norm(sol.grid.node_xy, axis=1)
        linf = max(float(np.max(np.abs(u - ref(r))))
                   for u, ref in zip(sol.fields, self.oracle))
        with open(os.path.join(self.out, "manifest.json"), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if self.digest is None:
            self.digest = digest
        detail.update(linf_err=linf, ma_residual=resid, manifest=digest)
        if convex != [True, True]:
            return False, f"convex flags {convex}, expected both true", detail
        if resid > GRID_TOL:
            return False, f"|MA_h(u_i) + u_j| = {resid:.3e} > {GRID_TOL:g}", detail
        if linf > ORACLE_TOL:
            return False, f"L-inf error {linf:.3e} > {ORACLE_TOL:g}", detail
        if digest != self.digest:
            return False, "manifest digest differs from the first repeat", detail
        return True, None, detail

    def summary(self, records):
        errs = [r["detail"]["linf_err"] for r in records if "linf_err" in r["detail"]]
        return {"linf_err": (max(errs), "1")} if errs else {}

    def probes(self):
        return _grid_probes(self.solution) if self.solution is not None else {}


class CertifySweep(Workload):
    name = "certify-sweep"

    def __init__(self, seed, workdir, recorder=None):
        super().__init__(seed, workdir, recorder)
        self.theta = float(self.rng.uniform(0.1, math.pi / 4 - 0.1))
        self.phase = float(self.rng.uniform(0.0, 2.0 * math.pi))

    def inputs(self):
        return {"theta": self.theta, "phase": self.phase}

    def setup(self):
        self.system = power_coupled_system(1.0, 1.0)
        self.sol = solve_system_fd(DISK, self.system, (0.0, 0.0), FdParams(h=H))
        xy = self.sol.grid.node_xy
        self.control = GridSolution(
            grid=self.sol.grid,
            fields=[self.sol.fields[0] + 0.02 * np.sin(8.0 * np.pi * xy[:, 0] + self.phase),
                    self.sol.fields[1]],
            cs=(0.0, 0.0))

    def ops(self, traced):
        s = 1.0 / math.sqrt(2.0)
        nus = {"nu=(1,0)": (1.0, 0.0), "nu=(0,1)": (0.0, 1.0), "nu=diag": (s, s),
               f"nu=theta{self.theta:.4f}": (math.cos(self.theta), math.sin(self.theta))}
        ops = [Op(name, self._sweep(self.sol, nu), self._check_true,
                  known_failure=name.startswith("nu=theta"))
               for name, nu in nus.items()]
        ops.append(Op("control", self._sweep(self.control, (1.0, 0.0)),
                      self._check_control))
        return ops

    def _sweep(self, sol, nu):
        def run():
            planes = critical_planes(DISK, nu)
            return planes, lambda_sweep(sol, nu, planes, n_lambdas=16, system=self.system)
        return run

    @staticmethod
    def _plane_error(planes):
        return max(abs(planes.lam0 + 1.0), abs(planes.Lam0), abs(planes.Lam2))

    def _check_true(self, result):
        planes, rep = result
        detail = {"ei_violations": rep.total_ei_violations, "passed": rep.passed,
                  "control": False}
        err = self._plane_error(planes)
        if err > BALL_PLANE_TOL:
            return False, f"ball plane error {err:.3e}", detail
        if not rep.passed:
            return False, (f"certificate FAIL on the radial solution: "
                           f"{rep.total_ei_violations} EI violations, monotonicity "
                           f"{rep.monotonicity.get('passed')}, symmetry "
                           f"{rep.symmetry.get('passed')}"), detail
        return True, None, detail

    def _check_control(self, result):
        _, rep = result
        detail = {"ei_violations": rep.total_ei_violations, "passed": rep.passed,
                  "control": True}
        if rep.passed or rep.total_ei_violations < 1:
            return False, (f"negative control not caught: passed {rep.passed}, "
                           f"{rep.total_ei_violations} EI violations"), detail
        return True, None, detail

    def summary(self, records):
        per_pass = {}
        for r in records:
            d = r["detail"]
            if "ei_violations" in d and not d["control"]:
                per_pass[r["pass"]] = per_pass.get(r["pass"], 0) + d["ei_violations"]
        return ({"ei_violations": (statistics.median(per_pass.values()), "count")}
                if per_pass else {})

    def probes(self):
        return _grid_probes(self.sol)


class LevelsetPlanes(Workload):
    name = "levelset-planes"
    BBOX = ((-1.2, 1.0), (-1.1, 1.1))

    def __init__(self, seed, workdir, recorder=None):
        super().__init__(seed, workdir, recorder)
        self.c = float(self.rng.uniform(0.2, 0.4))

    def inputs(self):
        return {"c": self.c}

    def setup(self):
        c = self.c

        def phi(x):
            return x[..., 0] ** 2 + x[..., 1] ** 2 + c * np.exp(x[..., 0]) - 1.0 - c

        def grad_phi(x):
            return np.stack([2.0 * x[..., 0] + c * np.exp(x[..., 0]), 2.0 * x[..., 1]],
                            axis=-1)

        self.domain = SmoothLevelSet(phi=phi, grad_phi=grad_phi, bbox=self.BBOX)
        if self.recorder is not None:
            traced_phi = self.recorder.leaf("domains.phi", phi,
                                            lambda x: x.size // x.shape[-1])
            self.traced_domain = SmoothLevelSet(phi=traced_phi, grad_phi=grad_phi,
                                                bbox=self.BBOX)
        # x* minimizes x^2 + c e^x: it is where the boundary normal is vertical
        x_star = brentq(lambda x: 2.0 * x + c * math.exp(x), -1.0, 0.0, xtol=1e-15)
        g_min = x_star ** 2 + c * math.exp(x_star)
        self.ref_y = {"lam0": -math.sqrt(1.0 + c - g_min), "Lam0": 0.0, "Lam2": 0.0}
        self.ref_x = {"lam0": brentq(lambda x: x * x + c * math.exp(x) - 1.0 - c,
                                     -1.2, x_star, xtol=1e-15),
                      "Lam2": x_star}

    def ops(self, traced):
        domain = self.traced_domain if traced else self.domain
        return [Op("nu=(0,1)", lambda: critical_planes(domain, (0.0, 1.0)),
                   self._check_axis),
                Op("nu=(1,0)", lambda: critical_planes(domain, (1.0, 0.0)),
                   self._check_across, known_failure=True)]

    @staticmethod
    def _errors(planes, ref):
        return {k: abs(getattr(planes, k) - v) for k, v in ref.items()}

    def _check_axis(self, planes):
        errs = self._errors(planes, self.ref_y)
        detail = {"plane_err": max(errs.values()), "errors": errs}
        if detail["plane_err"] > PLANE_TOL:
            return False, f"plane errors {errs} exceed {PLANE_TOL:g}", detail
        return True, None, detail

    def _check_across(self, planes):
        errs = self._errors(planes, self.ref_x)
        detail = {"plane_err": max(errs.values()), "errors": errs,
                  "Lam0": planes.Lam0}
        if detail["plane_err"] > PLANE_TOL:
            return False, f"plane errors {errs} exceed {PLANE_TOL:g}", detail
        if not planes.lam0 < planes.Lam0 <= planes.Lam2 + PLANE_TOL:
            return False, (f"expected lam0 < Lam0 <= Lam2, got {planes.lam0}, "
                           f"{planes.Lam0}, {planes.Lam2}"), detail
        return True, None, detail

    def summary(self, records):
        errs = [r["detail"]["plane_err"] for r in records if "plane_err" in r["detail"]]
        return {"plane_err": (max(errs), "1")} if errs else {}


class ScreenRadial(CliWorkload):
    name = "screen-radial"
    RADIAL = ((1, 1, 2), (1, 2, 2), (0.5, 2, 2), (0.25, 4, 2), (1.9, 2, 2),
              (1.99, 2, 2), (2, 2, 2), (2.01, 2, 2), (2.1, 2, 2), (3, 3, 2),
              (1, 1, 3), (3, 3, 3), (1, 9, 3), (4, 4, 3))
    # (0.25, 4) exits 3 on its coupled residual; (1.99, 2) and (2.01, 2)
    # return no-solution although alpha * beta != n^2
    KNOWN_FAILURES = ((0.25, 4, 2), (1.99, 2, 2), (2.01, 2, 2))

    def __init__(self, seed, workdir, recorder=None):
        super().__init__(seed, workdir, recorder)
        self.hyp_seed = int(self.rng.integers(0, 2 ** 31 - 1))

    def inputs(self):
        return {"hypotheses_seed": self.hyp_seed}

    @property
    def cli_seed(self):
        return self.hyp_seed

    def setup(self):
        cfg = self._config
        self.configs = [
            ("hypotheses (1,1)", cfg("hyp-pair", {
                "command": "hypotheses", "system": {"alpha": 1.0, "beta": 1.0},
                "box": HYP_BOX, "samples": 10_000}), self._check_pair, False),
            ("hypotheses planted", cfg("hyp-planted", {
                "command": "hypotheses", "system": ["z2", "(0 - z1) ^ 1"],
                "box": HYP_BOX, "samples": 10_000}), self._check_planted, False),
            ("sweep-trichotomy", cfg("trichotomy", {"command": "sweep-trichotomy"}),
             self._check_trichotomy, False),
        ]
        for a, b, n in self.RADIAL:
            path = cfg(f"radial-{a}-{b}-{n}", {"command": "solve-radial",
                                               "alpha": a, "beta": b, "n": n})
            self.configs.append((f"solve-radial a={a} b={b} n={n}", path,
                                 self._radial_check(a, b, n),
                                 (a, b, n) in self.KNOWN_FAILURES))

    def ops(self, traced):
        return [Op(name, self._cli(path), check, known_failure=known)
                for name, path, check, known in self.configs]

    def _done(self, code, name):
        if code == 0:
            return self._read(name), None
        reason = f"exit code {code}, expected 0"
        if os.path.exists(os.path.join(self.out, "divergence.json")):
            reason += f": {self._read('divergence.json')['error']}"
        return None, reason

    def _detail(self):
        return {"artifact_bytes": _dir_bytes(self.out)}

    def _check_pair(self, code):
        rep, err = self._done(code, "hypotheses.json")
        if err:
            return False, err, {}
        need = ("positivity", "uniform_positivity", "cross_monotonicity",
                "orthogonal_invariance")
        bad = {k: rep["statuses"][k] for k in need if rep["statuses"][k] != "pass"}
        if bad:
            return False, f"hypotheses not passed: {bad}", self._detail()
        return True, None, self._detail()

    def _check_planted(self, code):
        rep, err = self._done(code, "hypotheses.json")
        if err:
            return False, err, {}
        status, witness = rep["statuses"]["positivity"], rep["witnesses"].get("positivity")
        if status != "fail" or not witness:
            return False, "planted sign flip not caught by positivity", self._detail()
        return True, None, self._detail()

    def _check_trichotomy(self, code):
        tri, err = self._done(code, "trichotomy.json")
        if err:
            return False, err, {}
        critical = tri["n"] ** 2
        wrong = [(r["alpha"], r["beta"], r["outcome"]) for r in tri["rows"]
                 if (r["outcome"] == "no-solution") != (r["alpha"] * r["beta"] == critical)]
        if wrong:
            return False, f"trichotomy violated for {wrong}", self._detail()
        return True, None, self._detail()

    def _radial_check(self, a, b, n):
        expected = "no-solution" if a * b == n * n else "solution"

        def check(code):
            summary, err = self._done(code, "summary.json")
            if err:
                return False, err, {"expected": expected}
            detail = {**self._detail(), "expected": expected, "outcome": summary["outcome"]}
            if summary["outcome"] != expected:
                return False, (f"outcome {summary['outcome']}, expected {expected} "
                               f"(alpha*beta = {a * b:g}, n^2 = {n * n})"), detail
            return True, None, detail

        return check


WORKLOADS = {w.name: w for w in (CoupledDisk, CertifySweep, LevelsetPlanes, ScreenRadial)}
