"""Property test of the command line: random and mutated configs of the
cheap commands always end in a documented exit code."""

import contextlib
import io
import json
import math
import pathlib
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from masym.cli import main


BOX = {"x": [[-1.0, 1.0], [-1.0, 1.0]], "z": [[-2.0, -0.1], [-2.0, -0.1]],
       "p": [[-1.0, 1.0], [-1.0, 1.0]]}
BAD_VALUES = (0, -1, 0.5, 1, 3, "x", "", None, True, [], [1.0], {}, {"a": 1}, math.nan,
              math.inf, 1e300, 10 ** 400)
INTEGER_KEYS = ("seed", "n", "grid_size", "samples", "n_lambdas")
# top-level keys besides command without which each cheap command cannot run
REQUIRED = {"solve-radial": ("alpha", "beta"), "hypotheses": ("system", "box"),
            "solve-grid": ("domain", "system")}


def _cheap_configs():
    """Random configs of the cheap commands: sizes stay small so a run is fast."""
    positive = st.floats(0.1, 4.0)
    radial = st.fixed_dictionaries({
        "command": st.just("solve-radial"), "alpha": positive, "beta": positive,
        "n": st.sampled_from([2, 3]), "grid_size": st.sampled_from([64, 128, 256])})
    hypotheses = st.fixed_dictionaries({
        "command": st.just("hypotheses"),
        "system": st.fixed_dictionaries({"alpha": positive, "beta": positive}),
        "box": st.just(BOX), "samples": st.integers(1, 256)})
    grid = st.fixed_dictionaries({
        "command": st.just("solve-grid"),
        "domain": st.just({"shape": "ball", "center": [0.0, 0.0], "radius": 1.0}),
        "system": st.fixed_dictionaries({"alpha": positive, "beta": positive}),
        "cs": st.just([0.0, 0.0]),
        "params": st.fixed_dictionaries({"h": st.just(0.125),
                                         "stencil_width": st.sampled_from([1, 2, 3]),
                                         "max_newton": st.sampled_from([1, 60])})})
    return st.one_of(radial, hypotheses, grid)


def _positive_finite(value):
    """True for a positive number, not a boolean, that a float64 holds."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return 0 < float(value) < math.inf
    except OverflowError:
        return False


@st.composite
def _mutated_configs(draw):
    """A cheap config, then at most one bad key or value, at top level or
    nested; and whether the config must be rejected, which it must when an
    exponent, in ``system`` or not, got a value that is not a positive
    finite number, an integer key got one beyond the float64 range, or a
    required key was deleted."""
    cfg = json.loads(json.dumps(draw(_cheap_configs())))
    target = draw(st.sampled_from([cfg] + [v for v in cfg.values() if isinstance(v, dict)]))
    how = draw(st.sampled_from(["none", "value", "delete", "unknown"]))
    # params and its h stay, bad or not: the default h = 1/64 makes a slow solve
    key = draw(st.sampled_from(sorted(k for k in target if k != "params")
                               + ["tol", "stencil_width", "max_newton"]))
    rejected = False
    if how == "value":
        target[key] = draw(st.sampled_from(BAD_VALUES))
        rejected = ((key in ("alpha", "beta") and not _positive_finite(target[key]))
                    or (key in INTEGER_KEYS and target[key] == 10 ** 400))
    elif how == "delete" and key != "h":
        target.pop(key, None)
        rejected = target is cfg and (key == "command" or key in REQUIRED[cfg["command"]])
    elif how == "unknown":
        target["bogus"] = draw(st.sampled_from(BAD_VALUES))
    return cfg, rejected


def _run(cfg, tmp):
    """Exit code, standard error and output directory of one run of ``cfg``."""
    path = tmp / "config.json"
    path.write_text(json.dumps(cfg, indent=1) + "\n")
    out = tmp / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["--config", str(path), "--out", str(out), "--quiet"])
    return code, err.getvalue(), out


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_mutated_configs())
def test_cli_outcome_is_always_an_exit_code(case):
    """Random and mutated configs end in exit 0-3 with no traceback (an
    exception escaping main would be one), no leftover lock, and a manifest
    exactly when the run finished (0 or 1); a bad exponent or a deleted
    required key ends in exit 2 before the output directory exists."""
    cfg, rejected = case
    with tempfile.TemporaryDirectory() as tmp:
        code, err, out = _run(cfg, pathlib.Path(tmp))
        assert code in (0, 1, 2, 3)
        assert not rejected or (code == 2 and not out.exists())
        assert "Traceback" not in err
        assert not (out / ".lock").exists()
        assert (out / "manifest.json").exists() == (code in (0, 1))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_cheap_configs().filter(lambda cfg: "system" in cfg), st.sampled_from(["alpha", "beta"]),
       st.sampled_from([v for v in BAD_VALUES if not _positive_finite(v)]))
def test_bad_nested_exponent_is_a_config_error(cfg, key, value):
    """An exponent in ``system`` that is not a positive finite number, a
    boolean among them, ends in exit 2 before any output is written."""
    cfg = json.loads(json.dumps(cfg))
    cfg["system"][key] = value
    with tempfile.TemporaryDirectory() as tmp:
        code, err, out = _run(cfg, pathlib.Path(tmp))
        assert code == 2
        assert f"{key} must be a positive finite number" in err
        assert not out.exists()


DISK = {"shape": "ball", "center": [0.0, 0.0], "radius": 1.0}
PAIR = {"alpha": 1.0, "beta": 1.0}
FULL_CONFIGS = (
    {"command": "solve-radial", "alpha": 1.0, "beta": 2.0},
    {"command": "hypotheses", "system": PAIR, "box": BOX},
    {"command": "solve-grid", "domain": DISK, "system": PAIR},
    {"command": "certify", "domain": DISK, "system": PAIR},
    {"command": "linearize", "domain": DISK, "system": PAIR, "lambda": -0.3},
)


@pytest.mark.parametrize("cfg, key", [(cfg, key) for cfg in FULL_CONFIGS
                                      for key in cfg if key != "command"],
                         ids=lambda v: v if isinstance(v, str) else v["command"])
def test_missing_required_key_is_a_config_error(tmp_path, cfg, key):
    """Deleting any key a command cannot run without ends in exit 2 naming
    the key, before the output directory exists."""
    cfg = {k: v for k, v in cfg.items() if k != key}
    code, err, out = _run(cfg, tmp_path)
    assert code == 2
    assert f"missing key {key!r} for command {cfg['command']!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("key, command", [
    ("seed", "solve-radial"), ("n", "solve-radial"), ("grid_size", "solve-radial"),
    ("samples", "hypotheses"), ("n_lambdas", "certify"),
])
def test_integer_beyond_float64_is_a_config_error(tmp_path, key, command):
    """An integer key whose value no float64 holds ends in exit 2 naming the
    key and its line, before anything is solved, sampled or written."""
    cfg = {"command": command, "alpha": 1.0, "beta": 2.0}
    if command == "hypotheses":
        cfg = {"command": command, "system": {"alpha": 1.0, "beta": 2.0}, "box": BOX}
    elif command == "certify":
        cfg = {"command": command, "fixture": "quadratic"}
    cfg[key] = 10 ** 400
    code, err, out = _run(cfg, tmp_path)
    line = next(k for k, text in enumerate(
        (tmp_path / "config.json").read_text().splitlines(), start=1) if f'"{key}"' in text)
    assert code == 2
    assert f"config.json:{line}: {key} must be an integer" in err
    assert "Traceback" not in err
    assert not out.exists()


NOT_FINITE = (math.nan, math.inf, -math.inf, 10 ** 400, "x", None, True)
DOMAINS = (
    {"shape": "ball", "center": [0.0, 0.0], "radius": 1.0},
    {"shape": "ellipse", "center": [0.0, 0.0], "semi_axes": [1.0, 0.6]},
    {"shape": "tube", "cross_section": {"shape": "ball", "center": [0.0], "radius": 1.0},
     "half_height": 1.0},
)


def _number_sites(obj, names):
    """(container, key or index, key the error names) of every number of
    ``obj`` under ``names``, and of each list holding them, recursing into a
    nested ``cross_section``."""
    sites = []
    for name in names:
        if name not in obj:
            continue
        sites.append((obj, name, name))
        if isinstance(obj[name], list):
            sites += [(obj[name], i, name) for i in range(len(obj[name]))]
    if "cross_section" in obj:
        sites += _number_sites(obj["cross_section"], names)
    return sites


@st.composite
def _nested_number_cases(draw):
    """A certify config with a domain and nu, or a hypotheses config with a
    box, in which one nested number, or a list of them, is replaced by a
    value that a float does not hold finitely; and the key the error names."""
    if draw(st.booleans()):
        cfg = {"command": "hypotheses", "system": {"alpha": 1.0, "beta": 1.0},
               "box": json.loads(json.dumps(BOX))}
        rows = cfg["box"][draw(st.sampled_from(sorted(BOX)))]
        sites = [(rows, i, "box") for i in range(len(rows))]
        sites += [(row, i, "box") for row in rows for i in range(len(row))]
    else:
        domain = json.loads(json.dumps(draw(st.sampled_from(DOMAINS))))
        cfg = {"command": "certify", "domain": domain, "system": {"alpha": 1.0, "beta": 1.0},
               "params": {"h": 0.125}, "nu": [1.0, 0.0]}
        sites = (_number_sites(cfg["domain"], ("center", "radius", "semi_axes", "half_height"))
                 + _number_sites(cfg, ("nu",)))
    container, where, key = draw(st.sampled_from(sites))
    container[where] = draw(st.sampled_from(NOT_FINITE))
    return cfg, key


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_nested_number_cases())
def test_nested_number_beyond_float64_is_a_config_error(case):
    """A domain's center, radius, semi-axes or half-height (also of a tube's
    cross-section), an entry of nu or of the hypotheses box that no float
    holds finitely ends in exit 2 naming the key and its line, before
    anything is written."""
    cfg, key = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        code, err, out = _run(cfg, tmp)
        line = next(k for k, text in enumerate(
            (tmp / "config.json").read_text().splitlines(), start=1) if f'"{key}"' in text)
        assert code == 2
        assert f"config.json:{line}: {key} must be" in err
        assert "Traceback" not in err
        assert not out.exists()
