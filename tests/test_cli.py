import hashlib
import json
import math
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
    """Importing the package and the CLI loads no scipy.stats,
    scipy.optimize, scipy.interpolate, scipy.integrate, scipy.ndimage or
    scipy.spatial: the program needs scipy.linalg and scipy.sparse alone,
    and every CLI run pays for what the import loads."""
    heavy = ("scipy.stats", "scipy.optimize", "scipy.interpolate", "scipy.integrate",
             "scipy.ndimage", "scipy.spatial")
    code = f"import sys, masym, masym.cli; print([m for m in {heavy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(masym.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_hypotheses_screen_leaves_scipy_stats_unloaded(tmp_path):
    """A hypotheses screen draws its Sobol' points without scipy.stats: a
    fresh interpreter that runs one has not imported it."""
    cfg = write_config(tmp_path, HYP_CFG)
    out = str(tmp_path / "out")
    code = ("import sys; from masym.cli import main; "
            f"status = main(['--config', {cfg!r}, '--out', {out!r}, '--quiet']); "
            "print(status, 'scipy.stats' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(masym.__file__)))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.strip() == "0 False"
    assert os.path.exists(os.path.join(out, "hypotheses.json"))


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


HYP_CFG = {"command": "hypotheses", "system": {"alpha": 1.0, "beta": 1.0}, "samples": 256,
           "box": {"x": [[-1.0, 1.0], [-1.0, 1.0]], "z": [[-2.0, -0.1], [-2.0, -0.1]],
                   "p": [[-1.0, 1.0], [-1.0, 1.0]]}}


def test_reruns_are_byte_identical(tmp_path):
    """Two runs of a config write the same files, byte for byte: a radial
    solve, a hypotheses screen and the trichotomy sweep."""
    expected = {"solve-radial": {"profile.csv", "summary.json", "manifest.json"},
                "hypotheses": {"hypotheses.json", "manifest.json"},
                "sweep-trichotomy": {"trichotomy.json", "trichotomy.csv", "manifest.json"}}
    for obj in (RADIAL_CFG, HYP_CFG, {"command": "sweep-trichotomy"}):
        cfg = write_config(tmp_path, obj, name=f"{obj['command']}.json")
        a, b = tmp_path / f"{obj['command']}-a", tmp_path / f"{obj['command']}-b"
        assert main(["--config", cfg, "--out", str(a), "--quiet"]) == 0
        assert main(["--config", cfg, "--out", str(b), "--quiet"]) == 0
        names = set(os.listdir(a))
        assert names == set(os.listdir(b)) == expected[obj["command"]]
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


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


@pytest.mark.parametrize("make, message", [
    (lambda tmp_path: str(tmp_path), "cannot read config"),
    (lambda tmp_path: write_config(tmp_path, [1, 2]), "config must be a JSON object"),
], ids=["directory", "list"])
def test_unreadable_config_rejected_before_the_output_dir(tmp_path, capsys, make, message):
    out = tmp_path / "out"
    assert main(["--config", make(tmp_path), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_tube_axis_direction_rejected_before_the_solve(tmp_path, capsys, monkeypatch):
    """A tube's planes need nu orthogonal to its axis: along the axis,
    certify exits 2, naming nu, before the solve and the output dir."""
    monkeypatch.setattr("masym.cli.solve_system_fd",
                        lambda *args: pytest.fail("the grid was solved"))
    tube = {"shape": "tube", "cross_section": {"shape": "ball", "center": [0.0],
                                               "radius": 1.0}, "half_height": 1.0}
    cfg = write_config(tmp_path, dict(GRID_CFG, command="certify", domain=tube,
                                      params={"h": 0.0625}, nu=[0.0, 1.0]))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "nu: tube critical planes require a direction orthogonal to the axis" in err
    assert "Traceback" not in err
    assert not out.exists()


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


SPLIT_SYSTEM = {"n": 2, "components": ["(0 - z2) + 1", "(0 - z1) + 1"],
                "splits": [[0, "(0 - z2) + 1"], [0, "(0 - z1) + 1"]]}
HYP_BOX = {"x": [[-1.0, 1.0], [-1.0, 1.0]], "z": [[-2.0, -0.1], [-2.0, -0.1]],
           "p": [[-1.0, 1.0], [-1.0, 1.0]]}
CERTIFY_CFG = dict(GRID_CFG, command="certify", params={"h": 0.0625})


@pytest.mark.parametrize("cfg, message", [
    (dict(CERTIFY_CFG, system=dict(SPLIT_SYSTEM, lipschitz_p=[math.nan, math.nan])),
     "lipschitz_p entries must be"),
    (dict(CERTIFY_CFG, system=dict(SPLIT_SYSTEM, lipschitz_z=["x", True])),
     "lipschitz_z entries must be"),
    (dict(CERTIFY_CFG, system=dict(SPLIT_SYSTEM, lipschitz_z=["1e400", 0.0])),
     "lipschitz_z entries must be"),
    (dict(CERTIFY_CFG, system=dict(SPLIT_SYSTEM, lipschitz_z=[10 ** 400, 0.0])),
     "lipschitz_z entries must be"),
    (dict(GRID_CFG, system={"n": 2, "components": ["1 + x3", "1 - z1"]}), "uses x3"),
    (dict(GRID_CFG, system=["1 + x3", "1 - z1"]), "uses x3"),
    (dict(GRID_CFG, system=["1 - z3"], cs=[0.0]), "uses z3"),
    (dict(GRID_CFG, system={"n": 3, "components": ["1 - z2", "1 - z1"]}),
     "differs from the domain's dimension"),
    (dict(GRID_CFG, system={"n": 2.0, "components": ["1 - z2", "1 - z1"]}),
     "n must be an integer"),
    ({"command": "hypotheses", "system": {"alpha": 1.0, "beta": 1.0}, "box": HYP_BOX,
      "which": "positivity"}, "which must be a list of names"),
    ({"command": "hypotheses", "system": {"alpha": 1.0, "beta": 1.0}, "box": HYP_BOX,
      "which": ["positivity", "evenness"]}, "which must be a list of names"),
    ({"command": "hypotheses", "system": {"alpha": 1.0, "beta": 1.0},
      "box": dict(HYP_BOX, p=[[1.0, -1.0], [-1.0, 1.0]])}, "lo <= hi"),
    ({"command": "certify", "fixture": "cubic"}, 'fixture must be "quadratic"'),
    # the fixture brings its own source and boundary constant
    ({"command": "certify", "fixture": "quadratic", "system": {"alpha": 1.0, "beta": 1.0},
      "params": {"h": 0.125}}, "config.json:4: system: the quadratic fixture takes no system"),
    ({"command": "certify", "fixture": "quadratic", "cs": [5.0], "params": {"h": 0.125}},
     "config.json:4: cs: the quadratic fixture takes no cs"),
    # an error raised while a key's value is read names the file, line and key
    ({"command": "hypotheses", "system": {"components": ["z2", "z1"]}, "box": HYP_BOX},
     "config.json:3: system: missing key 'n'"),
    ({"command": "hypotheses", "system": {"alpha": 1.0, "beta": 1.0},
      "box": {"x": HYP_BOX["x"], "z": HYP_BOX["z"]}}, "config.json:7: box: missing key 'p'"),
    ({"command": "hypotheses", "system": {"alpha": 1.0, "beta": 1.0},
      "box": dict(HYP_BOX, x=[[-1.0, 1.0]])},
     "config.json:7: box: cannot reshape array of size 2 into shape (2,2)"),
    (dict(GRID_CFG, cs=[0.0]), "config.json:15: cs: cs needs 2 boundary constants"),
    (dict(GRID_CFG, command="linearize", nu=[1.0, 1.0], **{"lambda": -0.3}),
     "config.json:19: nu: direction must be a unit vector"),
    (dict(CERTIFY_CFG, nu=[1.0, 1.0]), "config.json:22: nu: direction must be a unit vector"),
    (dict(GRID_CFG, domain={"shape": "ellipse", "center": [0.0, 0.0],
                            "semi_axes": [1.0, 0.6, 0.5]}),
     "config.json:3: domain: center/semi-axes dimension mismatch"),
    ({"command": "hypotheses", "system": ["z2 ** 2", "z1"], "box": HYP_BOX},
     "config.json:3: system: 'z2 ** 2'"),
], ids=["lipschitz-nan", "lipschitz-not-numbers", "lipschitz-1e400", "lipschitz-10^400",
        "x3-system", "x3-list", "z3-one-component", "n-not-the-domain's", "n-float",
        "which-string", "which-unknown", "box-lo-above-hi", "fixture-cubic", "fixture-system",
        "fixture-cs", "system-without-n",
        "box-without-p", "box-one-x-row", "cs-short", "linearize-nu-not-unit",
        "certify-nu-not-unit", "ellipse-dimension-mismatch", "component-double-star"])
def test_malformed_config_rejected_before_the_output_dir(tmp_path, capsys, cfg, message):
    """A declared constant that is not a finite number >= 0, a variable out
    of range, a system whose n is not the domain's dimension, a bad which,
    box or fixture, a system or cs beside the fixture: each exits 2, naming
    the fault, before the output directory exists."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=1).replace('"1e400"', "1e400") + "\n")
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
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


def test_nested_key_error_names_the_line_in_its_section(tmp_path, capsys):
    """An unknown domain key that shares its name with a top-level key is
    reported at its own line, inside domain, not at the top-level one."""
    path = tmp_path / "keyline.json"
    path.write_text('{"command": "certify",\n "nu": [1.0, 0.0],\n'
                    ' "system": {"alpha": 1.0, "beta": 2.0},\n'
                    ' "domain": {"shape": "ball", "center": [0.0, 0.0], "radius": 1.0,\n'
                    '  "nu": [1.0, 0.0]}}\n')
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "keyline.json:5: unknown domain key 'nu'" in err
    assert not out.exists()


@pytest.mark.parametrize("second", [' "nu": [1.0, 0.0],\n', ' "nu": "\\"radius\\": [{",\n'],
                         ids=["plain", "string-with-brackets"])
def test_unknown_top_level_key_is_named_at_its_own_line(tmp_path, capsys, second):
    """An unknown top-level key that shares its name with a key nested in an
    earlier section, or with the text of a string value, is reported at its
    own line, not at the nested one."""
    path = tmp_path / "keyline.json"
    path.write_text('{"command": "certify",\n' + second
                    + ' "domain": {"shape": "ball", "center": [0.0, 0.0], "radius": 1.0},\n'
                    ' "system": {"alpha": 1.0, "beta": 2.0},\n "radius": 1.0}\n')
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "keyline.json:5: unknown key 'radius' for command 'certify'" in err
    assert not out.exists()


def test_screen_coordinates_past_the_table_are_a_config_error(tmp_path, capsys, monkeypatch):
    """A hypotheses system whose 2n + m coordinates outnumber the committed
    Sobol' rows exits 2 at the system line, before the output directory
    exists or a point is drawn."""
    monkeypatch.setattr(masym.rhs, "_sobol_samples",
                        lambda *args: pytest.fail("the sampler was called"))
    m = 29
    box = {"x": [[-1.0, 1.0]] * 2, "z": [[-2.0, -0.1]] * m, "p": [[-1.0, 1.0]] * 2}
    path = tmp_path / "config.json"
    path.write_text('{"command": "hypotheses",\n "samples": 16,\n'
                    f' "system": {json.dumps(["0 - z1"] * m)},\n "box": {json.dumps(box)}}}\n')
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "config.json:3: system: the hypotheses screen samples 2n + m = 33 coordinates" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_samples_past_the_sequence_is_a_config_error(tmp_path, capsys, monkeypatch):
    """More samples than the 2 ** 30 points of the Sobol' sequence exit 2 at
    the samples line, before the output directory exists or a point is drawn."""
    monkeypatch.setattr(masym.rhs, "_sobol_samples",
                        lambda *args: pytest.fail("the sampler was called"))
    path = tmp_path / "config.json"
    path.write_text('{"command": "hypotheses",\n "system": {"alpha": 1.0, "beta": 1.0},\n'
                    f' "box": {json.dumps(HYP_CFG["box"])},\n "samples": {2**30 + 1}}}\n')
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "config.json:4: samples must be from 1 to 2**30" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_expression_domain_error_is_a_divergence(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(GRID_CFG, system=["log(z1)"], cs=[0.0],
                                      params={"h": 0.0625}))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 3
    assert "log of a non-positive argument" in read_json(out / "divergence.json")["error"]
    assert "Traceback" not in capsys.readouterr().err
    assert not (out / ".lock").exists()
    assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 3


def test_expression_domain_error_in_the_sweep_is_a_divergence(tmp_path, capsys):
    """A split that leaves its domain on the first caps raises in a sweep
    worker: certify exits 3 with the error in divergence.json."""
    system = {"n": 2, "components": ["(0 - z2) + 1", "(0 - z1) + 1"],
              "splits": [[0, "log(x1 + 0.5) + 1"], [0, "(0 - z1) + 1"]]}
    cfg = write_config(tmp_path, dict(GRID_CFG, command="certify", system=system,
                                      params={"h": 0.0625}))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 3
    assert read_json(out / "divergence.json")["error"] == (
        "log of a non-positive argument in subexpression 'log((x1 + 0.5))'")
    assert "Traceback" not in capsys.readouterr().err
    assert not (out / ".lock").exists()
    assert not (out / "certificate.json").exists()


def test_certify_quadratic_fixture(tmp_path):
    cfg = write_config(tmp_path, {"command": "certify", "fixture": "quadratic",
                                  "params": {"h": 0.03125}, "n_lambdas": 6})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 0
    cert = read_json(out / "certificate.json")
    assert cert["passed"]
    assert cert["total_ei_violations"] == 0


@pytest.mark.parametrize("h", [1.0 / 32.0, 1.0 / 64.0])
def test_certify_passes_the_one_two_pair(tmp_path, h):
    """The paper's (1, 2) example: every margin scales with its solution's
    amplitude, about 0.07, so monotonicity and Hopf hold on the disk."""
    cfg = write_config(tmp_path, dict(GRID_CFG, command="certify",
                                      system={"alpha": 1.0, "beta": 2.0}, params={"h": h}))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 0
    cert = read_json(out / "certificate.json")
    assert cert["passed"] and cert["boundary"]["hopf"]["passed"]
    assert [c["violations"] for c in cert["monotonicity"]["components"]] == [0, 0]


def test_certify_with_no_monotonicity_node_is_not_applicable(tmp_path):
    """At h = 0.5 no node of the quadratic fixture lies left of the plane:
    the monotonicity audit checks nothing, so it passes nothing.  The grid
    is too coarse for Hopf (least outward derivative 1.0 against the margin
    10 h^2 = 2.5), and a failed boundary check fails the certificate."""
    cfg = write_config(tmp_path, {"command": "certify", "fixture": "quadratic",
                                  "params": {"h": 0.5}})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 1
    cert = read_json(out / "certificate.json")
    assert not cert["boundary"]["hopf"]["passed"] and not cert["passed"]
    mono = cert["monotonicity"]
    assert mono["verdict"] == "not-applicable" and "passed" not in mono
    assert all(entry["n_checked"] == 0 for entry in mono["components"])


@pytest.mark.parametrize("cfg", [
    {"command": "certify", "fixture": "quadratic", "params": {"h": 0.6}},
    dict(GRID_CFG, command="certify", params={"h": 0.6}),
    dict(GRID_CFG, command="certify", params={"h": 0.7}),
], ids=["quadratic-0.6", "disk-0.6", "disk-0.7"])
def test_certify_with_nothing_to_audit_fails(tmp_path, capsys, cfg):
    """On grids this coarse no Hopf sample keeps its discrete interior disk
    and no node carries a Laplacian: each audit reports a null minimum and
    fails, so the certificate fails (exit 1) with no traceback."""
    out = tmp_path / "out"
    assert main(["--config", write_config(tmp_path, cfg), "--out", str(out), "--quiet"]) == 1
    assert "Traceback" not in capsys.readouterr().err
    cert = read_json(out / "certificate.json")
    hopf, lap = cert["boundary"]["hopf"], cert["boundary"]["laplacian"]
    assert hopf["min"] is None and not hopf["passed"]
    assert all(e["min_normal_derivative"] is None for e in hopf["components"])
    assert all(e["min_laplacian"] is None for e in lap["components"])
    assert not lap["passed"] and not cert["passed"]


@pytest.mark.parametrize("command, extra", [("certify", {}), ("linearize", {"lambda": -0.3})])
def test_operator_overflow_is_a_divergence(tmp_path, capsys, command, extra):
    """The (2.01, 2) disk pair solves to amplitudes of about 1e175, whose
    discrete operator overflows a float64: exit 3 with the solve's sweep
    history and the amplitude in divergence.json, and no numpy warning (the
    suite turns RuntimeWarning into an error)."""
    cfg = write_config(tmp_path, dict(GRID_CFG, command=command, params={"h": 0.03125},
                                      system={"alpha": 2.01, "beta": 2.0}, **extra))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 3
    report = read_json(out / "divergence.json")
    assert "overflow a float64 at amplitude 3.786e+175" in report["error"]
    assert len(report["history"]) > 0
    assert "Traceback" not in capsys.readouterr().err
    assert not (out / ".lock").exists()


def test_operator_underflow_is_no_fault(tmp_path):
    """The (1.99, 2) disk pair, with fields of about 1e-175, certifies."""
    cfg = write_config(tmp_path, dict(GRID_CFG, command="certify", params={"h": 0.03125},
                                      system={"alpha": 1.99, "beta": 2.0}))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert read_json(out / "certificate.json")["passed"] is True


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


@pytest.mark.parametrize("component, code", [
    ("z2 ", 0),
    ("(" * 400 + "z2" + ")" * 400, 2),
], ids=["trailing-space", "400-parentheses"])
def test_component_text_is_screened_or_rejected(tmp_path, capsys, component, code):
    """Trailing whitespace is whitespace; text nested past Python's limit of
    200 parentheses is a config error, with no traceback or output dir."""
    cfg = write_config(tmp_path, {"command": "hypotheses", "system": [component, "z1"],
                                  "box": HYP_BOX, "samples": 64})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--quiet"]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert out.exists() is (code == 0)
    if code:
        assert "config.json:" in err and "system: cannot parse" in err


def test_trichotomy_command(tmp_path):
    cfg = write_config(tmp_path, {"command": "sweep-trichotomy", "n": 2,
                                  "grid_size": 512,
                                  "pairs": [[1, 1], [2, 2]]})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 0
    rows = read_json(out / "trichotomy.json")["rows"]
    assert [r["outcome"] for r in rows] == ["solution", "no-solution"]


def _artifacts(tmp_path, obj, name):
    """The exit code and the bytes of each file that one run of ``obj`` writes."""
    out = tmp_path / name
    code = main(["--config", write_config(tmp_path, obj, name=f"{name}.json"),
                 "--out", str(out), "--quiet"])
    return code, {f: (out / f).read_bytes() for f in sorted(os.listdir(out))}


RADIAL_DEFAULTS = {"n": 2, "R": 1.0, "tol": 1e-9, "grid_size": 2048}


@pytest.mark.parametrize("bare, given", [
    ({"command": "solve-radial", "alpha": 1.0, "beta": 2.0}, RADIAL_DEFAULTS),
    ({"command": "sweep-trichotomy"}, RADIAL_DEFAULTS),
    ({"command": "hypotheses", "system": {"alpha": 1.0, "beta": 2.0}, "box": HYP_BOX},
     {"samples": 1024}),
    ({"command": "certify", "fixture": "quadratic"}, {"n_lambdas": 16}),
    ({"command": "solve-radial", "alpha": 1.0, "beta": 2.0, "R": 2.0, "tol": 1.0,
      "grid_size": 512}, {"R": 2, "tol": 1}),
    ({"command": "sweep-trichotomy", "R": 2.0, "tol": 1.0, "grid_size": 512},
     {"R": 2, "tol": 1}),
], ids=["solve-radial", "sweep-trichotomy", "hypotheses", "certify-fixture",
        "solve-radial-integers", "sweep-trichotomy-integers"])
def test_optional_keys_left_out_run_at_the_library_defaults(tmp_path, bare, given):
    """A config that leaves out n, R, tol, grid_size, samples or n_lambdas
    writes the bytes of one that gives the library's default, and integer
    spellings of R and tol write the bytes of their float spellings."""
    assert _artifacts(tmp_path, bare, "bare") == _artifacts(tmp_path, dict(bare, **given),
                                                            "given")


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


@pytest.mark.parametrize("nu", [[1.0, 0.0], [math.cos(0.5), math.sin(0.5)]],
                         ids=["axis", "0.5rad"])
def test_linearize_at_Lam0_is_the_last_sweep_entry(tmp_path, nu):
    """linearize at the disk's critical plane Lam0 = 0 runs the audit that
    certify's sweep runs on its last position: the same cap size,
    violations, least margin and flag counts."""
    base = {"domain": {"shape": "ball", "center": [0.0, 0.0], "radius": 1.0},
            "system": {"alpha": 1.0, "beta": 2.0}, "params": {"h": 0.03125}, "nu": nu}
    runs = {}
    for command, extra in (("certify", {}), ("linearize", {"lambda": 0.0})):
        cfg = write_config(tmp_path, dict(base, command=command, **extra), f"{command}.json")
        runs[command] = tmp_path / command
        assert main(["--config", cfg, "--out", str(runs[command]), "--quiet"]) == 0
    last = read_json(runs["certify"] / "certificate.json")["entries"][-1]
    lin = read_json(runs["linearize"] / "linearization.json")
    ei = lin["elliptic_inequality"]
    assert last["lambda"] == lin["lambda"] == 0.0
    assert lin["n_nodes"] > 0
    assert ((lin["n_nodes"], ei["total_violations"], ei["worst_margin"], lin["flagged_nonpd"])
            == (last["n_nodes"], last["ei_violations"], last["ei_worst_margin"],
                last["flagged_nonpd"]))


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


@pytest.mark.parametrize("sub", ["", "sub"])
def test_output_path_through_a_file_is_a_config_error(tmp_path, capsys, sub):
    """An --out that names an existing file, or a path below one, exits 2
    with a message naming it, and the file is left as it was."""
    cfg = write_config(tmp_path, RADIAL_CFG)
    afile = tmp_path / "afile"
    afile.write_text("keep\n")
    out = str(afile / sub) if sub else str(afile)
    assert main(["--config", cfg, "--out", out, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"config error: cannot make output directory {out}" in err
    assert "Traceback" not in err
    assert afile.read_text() == "keep\n"


def test_missing_config_flag_errors():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("key, cfg", [
    ("lambda", dict(LINEARIZE_CFG, **{"lambda": math.nan})),
    ("lambda", dict(LINEARIZE_CFG, **{"lambda": -math.inf})),
    ("cs", dict(GRID_CFG, cs=[0.0, math.nan])),
    ("cs", dict(GRID_CFG, cs=[math.inf, 0.0])),
], ids=["lambda-nan", "lambda-minus-inf", "cs-nan", "cs-inf"])
def test_nonfinite_lambda_or_cs_entry_is_a_config_error(tmp_path, capsys, key, cfg):
    """A NaN or infinite plane position or boundary constant exits 2 with
    the file, the key's line and the rule, before the output directory
    exists."""
    path = write_config(tmp_path, cfg)
    line = next(n for n, text in enumerate(open(path), 1) if f'"{key}"' in text)
    out = tmp_path / "out"
    assert main(["--config", path, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    what = "a finite number" if key == "lambda" else "a list of finite numbers"
    assert f"config.json:{line}: {key} must be {what}" in err and "Traceback" not in err
    assert not out.exists()
