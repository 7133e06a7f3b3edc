"""Property test of the command line: random and mutated configs of the
cheap commands always end in a documented exit code."""

import contextlib
import io
import json
import math
import pathlib
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from masym.cli import main


BOX = {"x": [[-1.0, 1.0], [-1.0, 1.0]], "z": [[-2.0, -0.1], [-2.0, -0.1]],
       "p": [[-1.0, 1.0], [-1.0, 1.0]]}
BAD_VALUES = (0, -1, 0.5, 1, 3, "x", "", None, True, [], [1.0], {}, {"a": 1}, math.nan,
              math.inf, 1e300)


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
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value) and value > 0)


@st.composite
def _mutated_configs(draw):
    """A cheap config, then at most one bad key or value, at top level or
    nested; and whether the config must be rejected, which it must when an
    exponent, in ``system`` or not, got a value that is not a positive
    finite number."""
    cfg = json.loads(json.dumps(draw(_cheap_configs())))
    target = draw(st.sampled_from([cfg] + [v for v in cfg.values() if isinstance(v, dict)]))
    how = draw(st.sampled_from(["none", "value", "delete", "unknown"]))
    # params and its h stay, bad or not: the default h = 1/64 makes a slow solve
    key = draw(st.sampled_from(sorted(k for k in target if k != "params")
                               + ["tol", "stencil_width", "max_newton"]))
    rejected = False
    if how == "value":
        target[key] = draw(st.sampled_from(BAD_VALUES))
        rejected = key in ("alpha", "beta") and not _positive_finite(target[key])
    elif how == "delete" and key != "h":
        target.pop(key, None)
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
    exactly when the run finished (0 or 1); a bad exponent ends in exit 2."""
    cfg, rejected = case
    with tempfile.TemporaryDirectory() as tmp:
        code, err, out = _run(cfg, pathlib.Path(tmp))
        assert code in (0, 1, 2, 3)
        assert code == 2 or not rejected
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
