import hashlib
import json
import os
import subprocess
import sys

import pytest

import masym
from masym.cli import main


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj, indent=1) + "\n")
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


RADIAL_CFG = {"command": "solve-radial", "alpha": 1.0, "beta": 2.0, "n": 2,
              "grid_size": 512}


def test_cli_import_leaves_the_heavy_scipy_modules_unloaded():
    """Importing the CLI loads no scipy.stats (only hypothesis screening
    draws Sobol points, and imports it then), scipy.interpolate or
    scipy.integrate."""
    heavy = ("scipy.stats", "scipy.interpolate", "scipy.integrate")
    code = f"import sys, masym.cli; print([m for m in {heavy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(masym.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_solve_radial_artifacts(tmp_path):
    cfg = write_config(tmp_path, RADIAL_CFG)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 0
    summary = read_json(out / "summary.json")
    assert summary["outcome"] == "solution"
    assert abs(summary["u1_center"] + 0.0652) < 1e-3
    manifest = read_json(out / "manifest.json")
    assert set(manifest["artifacts"]) == {"profile.csv", "summary.json"}
    for name, digest in manifest["artifacts"].items():
        data = (out / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


def test_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, RADIAL_CFG)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--config", cfg, "--out", str(a), "--quiet"]) == 0
    assert main(["--config", cfg, "--out", str(b), "--quiet"]) == 0
    for name in ("profile.csv", "summary.json", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_no_solution_is_an_outcome_not_an_error(tmp_path):
    cfg = write_config(tmp_path, {"command": "solve-radial", "alpha": 2.0,
                                  "beta": 2.0, "n": 2, "grid_size": 512})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert read_json(out / "summary.json")["outcome"] == "no-solution"


def test_unknown_key_rejected_with_location(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"command": "solve-radial",\n "alpha": 1.0,\n "bogus": 3}\n')
    code = main(["--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "bogus" in err
    assert "bad.json:3" in err


def test_invalid_json_rejected(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"command": "solve-radial",\n')
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "broken.json" in capsys.readouterr().err


def test_unknown_command_rejected(tmp_path):
    cfg = write_config(tmp_path, {"command": "frobnicate"})
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 2


def test_negative_parameter_rejected(tmp_path):
    cfg = write_config(tmp_path, {"command": "solve-radial", "alpha": -1.0,
                                  "beta": 2.0})
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 2


def _strict_json(path):
    def reject(token):
        raise ValueError(f"{path.name} holds the non-JSON token {token}")

    return json.loads(path.read_text(), parse_constant=reject)


@pytest.mark.parametrize("cfg, code", [
    ({"command": "solve-radial", "alpha": float("inf"), "beta": 2.0}, 2),
    ({"command": "solve-radial", "alpha": 1e300, "beta": 2.0}, 3),
    ({"command": "solve-radial", "alpha": 1.0, "beta": 2.0, "R": 1e300}, 3),
    ({"command": "sweep-trichotomy", "pairs": [[1, float("inf")]]}, 2),
    ({"command": "solve-radial", "alpha": True, "beta": 2.0}, 2),
    ({"command": "solve-radial", "alpha": 1.0, "beta": 1.0, "R": 1e150}, 3),
    ({"command": "solve-radial", "alpha": 1.0, "beta": 1.0, "n": 1000000}, 3),
    ({"command": "solve-radial", "alpha": 2.001, "beta": 2.0, "grid_size": 512}, 0),
], ids=["alpha-inf", "alpha-1e300", "R-1e300", "pair-inf", "alpha-true", "R-1e150",
        "n-1e6", "amplitude-beyond-float64"])
def test_nonfinite_or_huge_radial_input_is_a_documented_exit(tmp_path, capsys, cfg, code):
    """Infinite and boolean numbers are config errors; a finite exponent,
    radius or dimension too large for a float is a solver divergence, and
    amplitudes too large for a float are a no-solution outcome, with no
    numpy warning (the suite turns RuntimeWarning into an error).
    Either way no traceback, no lock, and every JSON written parses
    strictly."""
    out = tmp_path / "out"
    assert main(["--config", write_config(tmp_path, cfg), "--out", str(out),
                 "--quiet"]) == code
    assert "Traceback" not in capsys.readouterr().err
    assert not (out / ".lock").exists()
    for path in out.glob("*.json"):
        _strict_json(path)


GRID_CFG = {
    "command": "solve-grid",
    "domain": {"shape": "ball", "center": [0.0, 0.0], "radius": 1.0},
    "system": {"alpha": 1.0, "beta": 1.0},
    "cs": [0.0, 0.0],
}


def test_divergence_exit_code_and_report(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(GRID_CFG, params={"h": 0.0625, "max_newton": 1}))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 3
    report = read_json(out / "divergence.json")
    assert "Newton reached max_newton = 1" in report["error"]
    assert len(report["history"]) > 0
    assert not (out / ".lock").exists()


def test_solve_grid_summary_counts_are_deterministic(tmp_path):
    cfg = write_config(tmp_path, dict(GRID_CFG, params={"h": 0.0625}))
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--config", cfg, "--out", str(a), "--quiet"]) == 0
    assert main(["--config", cfg, "--out", str(b), "--quiet"]) == 0
    summary = read_json(a / "summary.json")
    # the shared Laplace start, a Newton step of each component, and a last
    # sweep that takes no step
    assert summary["outcome"] == "solution"
    assert summary["sweeps"] >= 2 and summary["factorizations"] >= 3
    for name in ("summary.json", "solution.bin", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("system, h, most", [
    ({"alpha": 1.0, "beta": 1.0}, 1.0 / 64.0, 16),
    ({"alpha": 1.0, "beta": 2.0}, 1.0 / 32.0, 18),
])
def test_power_pair_factorization_count(tmp_path, system, h, most):
    """The sweeps solve unit profiles and the amplitudes come from a 2x2
    system, so no sweep is spent on them: at most 16 factorizations for
    (1, 1) at h = 1/64 and 18 for (1, 2) at h = 1/32."""
    cfg = write_config(tmp_path, dict(GRID_CFG, system=system, params={"h": h}))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert read_json(out / "summary.json")["factorizations"] <= most


@pytest.mark.parametrize("system", [
    {"alpha": 2.0, "beta": 2.0},
    {"n": 2, "components": ["(0 - z2)^2", "2 * (-z1)^2 * 0.5"],
     "splits": [[0, "(0 - z2)^2"], [0, "2 * (-z1)^2 * 0.5"]]},
], ids=["power_coupled", "spelled_out"])
@pytest.mark.parametrize("command, extra", [
    ("solve-grid", {}),
    ("certify", {}),
    ("linearize", {"lambda": -0.3}),
])
def test_grid_power_pair_without_solution_is_an_outcome(tmp_path, system, command, extra):
    """A pair with alpha*beta = 4, given as a power pair or spelled out as
    expressions, writes a no-solution summary, and no fields or
    certificate, and exits 0; the counts in it are deterministic."""
    cfg = write_config(tmp_path, dict(GRID_CFG, command=command, system=system,
                                      params={"h": 0.0625}, **extra))
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--config", cfg, "--out", str(a), "--quiet"]) == 0
    assert main(["--config", cfg, "--out", str(b), "--quiet"]) == 0
    summary = read_json(a / "summary.json")
    assert summary["outcome"] == "no-solution" and "singular" in summary["reason"]
    assert summary["sweeps"] >= 2 and summary["factorizations"] >= 3
    assert set(read_json(a / "manifest.json")["artifacts"]) == {"summary.json"}
    for name in ("summary.json", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("command, extra, system, component", [
    ("certify", {}, ["(0 - z2) + 1", "(0 - z1) + 1"], 1),
    ("linearize", {"lambda": -0.3},
     {"n": 2, "components": ["(0 - z2) + 1", "(0 - z1) + 1"],
      "splits": [[0, "(0 - z2) + 1"], None]}, 2),
], ids=["certify_no_split", "linearize_one_split"])
def test_missing_split_rejected_before_the_solve(tmp_path, capsys, command, extra,
                                                 system, component):
    """certify and linearize take d_ii on each component's declared split,
    so a system without one is a config error before the output dir exists."""
    cfg = write_config(tmp_path, dict(GRID_CFG, command=command, system=system,
                                      params={"h": 0.0625}, **extra))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert f"split of component {component}" in capsys.readouterr().err
    assert not out.exists()


def test_deleted_params_key_rejected_without_lock(tmp_path, capsys):
    path = tmp_path / "old.json"
    path.write_text('{"command": "solve-grid",\n "system": {"alpha": 1.0, "beta": 1.0},\n'
                    ' "params": {"h": 0.0625,\n  "max_euler": 3}}\n')
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "old.json:4" in err and "max_euler" in err
    assert "Traceback" not in err
    assert not (out / ".lock").exists()


@pytest.mark.parametrize("key, value", [
    ("h", 0.0), ("h", "x"), ("stencil_width", 4), ("max_newton", 0), ("tol", -1),
])
def test_invalid_params_value_rejected_without_lock(tmp_path, capsys, key, value):
    path = tmp_path / "params.json"
    path.write_text('{"command": "solve-grid",\n "system": {"alpha": 1.0, "beta": 1.0},\n'
                    f' "params": {{\n  "{key}": {json.dumps(value)}}}}}\n')
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "params.json:4" in err and key in err
    assert "Traceback" not in err
    assert not (out / ".lock").exists()
    assert not (out / "manifest.json").exists()


def test_grid_too_large_for_h_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"command": "solve-grid",
                                  "domain": {"shape": "ball", "center": [0.0, 0.0],
                                             "radius": 1.0},
                                  "system": {"alpha": 1.0, "beta": 1.0},
                                  "params": {"h": 1e-4}})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "grid" in err
    assert "Traceback" not in err
    assert not (out / ".lock").exists()
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("text, key, line", [
    ('{"command": "solve-grid",\n "domain": {"shape": "ball", "center": [0.0, 0.0],\n'
     '  "radius": 1.0, "bogus": 3},\n "system": {"alpha": 1.0, "beta": 1.0}}\n', "bogus", 3),
    ('{"command": "solve-grid",\n "domain": {"shape": "ball", "center": [0.0, 0.0],\n'
     '  "radius": 1.0},\n "system": {"alpha": 1.0, "beta": 1.0,\n  "gamma": 2}}\n', "gamma", 5),
])
def test_unknown_nested_key_rejected_without_lock(tmp_path, capsys, text, key, line):
    path = tmp_path / "nested.json"
    path.write_text(text)
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"nested.json:{line}" in err and key in err
    assert "Traceback" not in err
    assert not (out / ".lock").exists()
    assert not (out / "manifest.json").exists()


def test_expression_domain_error_is_a_divergence(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(GRID_CFG, system=["log(z1)"], cs=[0.0],
                                      params={"h": 0.0625}))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 3
    assert "log of a non-positive argument" in read_json(out / "divergence.json")["error"]
    assert "Traceback" not in capsys.readouterr().err
    assert not (out / ".lock").exists()
    assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 3


def test_certify_quadratic_fixture(tmp_path):
    cfg = write_config(tmp_path, {"command": "certify", "fixture": "quadratic",
                                  "params": {"h": 0.03125}, "n_lambdas": 6})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 0
    cert = read_json(out / "certificate.json")
    assert cert["passed"]
    assert cert["total_ei_violations"] == 0


def test_certify_with_no_monotonicity_node_is_not_applicable(tmp_path):
    """At h = 0.5 no node of the quadratic fixture lies left of the plane:
    the monotonicity audit checks nothing, so it passes nothing."""
    cfg = write_config(tmp_path, {"command": "certify", "fixture": "quadratic",
                                  "params": {"h": 0.5}})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 0
    mono = read_json(out / "certificate.json")["monotonicity"]
    assert mono["verdict"] == "not-applicable" and "passed" not in mono
    assert all(entry["n_checked"] == 0 for entry in mono["components"])


@pytest.mark.parametrize("extra", [
    {"domain": {"shape": "ellipse", "center": [0.0, 0.0], "semi_axes": [1.0, 0.5]}},
    {"domain": {"shape": "ball", "center": [0.0, 0.0], "radius": float("nan")}},
    {"nu": "x"},
])
def test_unreadable_config_value_rejected_without_lock(tmp_path, capsys, extra):
    cfg = write_config(tmp_path, dict({"command": "certify", "fixture": "quadratic",
                                       "params": {"h": 0.125}}, **extra))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (out / ".lock").exists()
    assert not (out / "manifest.json").exists()


def test_value_error_during_a_run_is_not_a_config_error(tmp_path, monkeypatch):
    """Only reading the config maps ValueError to exit 2; one raised while
    the command runs is a defect and propagates."""
    def fail(*args, **kwargs):
        raise ValueError("numerical failure")

    monkeypatch.setattr("masym.cli.solve_coupled_radial", fail)
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="numerical failure"):
        main(["--config", write_config(tmp_path, RADIAL_CFG), "--out", str(out), "--quiet"])
    assert not (out / ".lock").exists()


def test_hypotheses_command(tmp_path):
    cfg = write_config(tmp_path, {
        "command": "hypotheses",
        "system": {"alpha": 1.0, "beta": 2.0},
        "box": {"x": [[-1.0, 1.0], [-1.0, 1.0]],
                "z": [[-2.0, -0.1], [-2.0, -0.1]],
                "p": [[-1.0, 1.0], [-1.0, 1.0]]},
        "samples": 128,
    })
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 0
    rep = read_json(out / "hypotheses.json")
    assert rep["statuses"]["positivity"] == "pass"


def test_trichotomy_command(tmp_path):
    cfg = write_config(tmp_path, {"command": "sweep-trichotomy", "n": 2,
                                  "grid_size": 512,
                                  "pairs": [[1, 1], [2, 2]]})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 0
    rows = read_json(out / "trichotomy.json")["rows"]
    assert [r["outcome"] for r in rows] == ["solution", "no-solution"]


def test_linearize_command(tmp_path):
    cfg = write_config(tmp_path, {
        "command": "linearize",
        "domain": {"shape": "ball", "center": [0.0, 0.0], "radius": 1.0},
        "system": {"alpha": 1.0, "beta": 1.0},
        "cs": [0.0, 0.0],
        "params": {"h": 0.03125},
        "nu": [1.0, 0.0],
        "lambda": -0.5,
    })
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 0
    rep = read_json(out / "linearization.json")
    assert rep["elliptic_inequality"]["total_violations"] == 0
    assert (out / "linearization.csv").exists()


LINEARIZE_CFG = {
    "command": "linearize",
    "domain": {"shape": "ball", "center": [0.0, 0.0], "radius": 1.0},
    "system": {"alpha": 1.0, "beta": 1.0},
    "cs": [0.0, 0.0],
    "params": {"h": 0.125},
}


@pytest.mark.parametrize("lam", [1e300, -1.5, 1.0 + 1e-9])
def test_linearize_plane_outside_the_domain_extent_is_a_config_error(tmp_path, capsys, lam):
    """A plane past the bounding box along nu cuts no cap worth auditing: the
    config is rejected before anything is solved or written."""
    cfg = write_config(tmp_path, dict(LINEARIZE_CFG, **{"lambda": lam}))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert "outside the domain's extent" in capsys.readouterr().err
    assert not out.exists()


def test_locked_output_directory_rejected(tmp_path):
    cfg = write_config(tmp_path, RADIAL_CFG)
    out = tmp_path / "out"
    out.mkdir()
    (out / ".lock").write_text("locked\n")
    assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 2


def test_missing_config_flag_errors():
    with pytest.raises(SystemExit):
        main([])
