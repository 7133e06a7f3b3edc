import warnings

import numpy as np
import pytest

from masym.expressions import parse
from masym.rhs import (HYPOTHESES, ConfigurationError, RhsSystem,
                       check_hypotheses, d_ij, eval_f, power_coupled_system)

BOX = {
    "x": [[-1.0, 1.0], [-1.0, 1.0]],
    "z": [[-2.0, -0.1], [-2.0, -0.1]],
    "p": [[-2.0, 2.0], [-2.0, 2.0]],
}


def test_power_system_eval():
    sys_ = power_coupled_system(1.5, 2.0)
    x = np.zeros((4, 2))
    z = np.array([[-1.0, -4.0]] * 4)
    p = np.zeros((4, 2))
    assert np.allclose(eval_f(sys_, 1, x, z, p), 8.0)
    assert np.allclose(eval_f(sys_, 2, x, z, p), 1.0)


def test_power_system_declared_structure():
    sys_ = power_coupled_system(1.0, 2.0)
    assert sys_.m == 2
    assert sys_.lipschitz_z == (0.0, 0.0)
    assert sys_.lipschitz_p == (0.0, 0.0)
    for s in sys_.splits:
        assert s is not None


def test_d_ij_zero_step():
    """A zero step gives exactly 0, alone or among the entries of an array
    step; the other entries are the plain quotient, bit for bit."""
    sys_ = power_coupled_system(1.0, 2.0)
    x, z, p = np.zeros(2), np.array([-1.0, -1.0]), np.zeros(2)
    assert d_ij(sys_, 1, 2, x, z, p, 0.0) == 0.0
    rng = np.random.default_rng(5)
    x, p = np.zeros((8, 2)), np.zeros((8, 2))
    z = rng.uniform(-2.0, -0.2, size=(8, 2))
    h = np.where(np.arange(8) % 3 == 0, 0.0, rng.uniform(-0.1, 0.1, size=8))
    nz = h != 0.0
    for i, j in ((1, 2), (2, 1)):
        zh = z.copy()
        zh[:, j - 1] += h
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = d_ij(sys_, i, j, x, z, p, h)
        f = sys_.components[i - 1]
        assert np.all(q[~nz] == 0.0)
        assert np.array_equal(q[nz], (f(x, zh, p) - f(x, z, p))[nz] / h[nz])


def test_eval_f_absorbs_an_intermediate_overflow():
    sys_ = RhsSystem(components=(parse("min(exp(1000), 1)"),), n=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert eval_f(sys_, 1, np.zeros(2), np.zeros(1), np.zeros(2)) == 1.0


def test_d_ij_cross_quotient_sign():
    """The cross quotients (f(.., z_j + h) - f) / h must be nonpositive."""
    sys_ = power_coupled_system(1.0, 2.0)
    rng = np.random.default_rng(11)
    for _ in range(50):
        z = rng.uniform(-2.0, -0.2, size=2)
        h = rng.uniform(0.0, 0.1)
        x, p = np.zeros(2), np.zeros(2)
        assert d_ij(sys_, 1, 2, x, z, p, h) <= 1e-12
        assert d_ij(sys_, 2, 1, x, z, p, h) <= 1e-12


def test_d_ij_matches_difference_quotient():
    sys_ = power_coupled_system(2.0, 1.0)
    x, p = np.zeros(2), np.zeros(2)
    z = np.array([-1.0, -0.5])
    h = 0.25
    z2 = z.copy()
    z2[1] += h
    expected = (eval_f(sys_, 1, x, z2, p) - eval_f(sys_, 1, x, z, p)) / h
    assert d_ij(sys_, 1, 2, x, z, p, h) == pytest.approx(float(expected))


def test_hypotheses_pass_on_power_system():
    sys_ = power_coupled_system(1.0, 1.0)
    rep = check_hypotheses(sys_, BOX, samples=512, seed=0)
    assert rep.passed("positivity", "uniform_positivity", "cross_monotonicity",
                      "orthogonal_invariance")
    assert rep.quotient_sign_ok
    assert rep.c_f > 0


def test_non_power_of_two_samples_draw_balanced_sobol_points():
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        rep = check_hypotheses(power_coupled_system(1.0, 1.0), BOX, samples=100, seed=0)
    assert rep.samples == 100


def test_planted_sign_violation_caught_with_witness():
    bad = RhsSystem(components=(parse("z2"), parse("(0 - z1) ^ 1")), n=2)
    rep = check_hypotheses(bad, BOX, samples=512, seed=0)
    assert rep.statuses["positivity"] == "fail"
    assert rep.witnesses["positivity"] is not None


def test_planted_monotonicity_violation_caught_with_witness():
    bad = RhsSystem(components=(parse("z2 + 3"), parse("(0 - z1) ^ 1")), n=2)
    rep = check_hypotheses(bad, BOX, samples=512, seed=0)
    assert rep.statuses["cross_monotonicity"] == "fail"
    assert rep.witnesses["cross_monotonicity"] is not None


def test_constant_component_screens_alongside_a_varying_one():
    sys_ = RhsSystem(components=(parse("4"), parse("0 - z1")), n=2)
    rep = check_hypotheses(sys_, BOX, samples=64, seed=0)
    assert rep.statuses["positivity"] == "pass"
    assert rep.statuses["axis_evenness"] == "pass"
    assert rep.statuses["orthogonal_invariance"] == "pass"


def test_overflowing_component_is_not_applicable_without_warnings():
    """(-z2)^1e300 overflows on the box: every check that evaluates it is
    not-applicable with a domain-error witness, and numpy warns nothing
    (the suite turns RuntimeWarning into an error)."""
    rep = check_hypotheses(power_coupled_system(1e300, 1.0), BOX, samples=64)
    for name in HYPOTHESES:
        if name != "gradient_lipschitz":  # no component depends on p
            assert rep.statuses[name] == "not-applicable", name
            assert "non-finite value" in rep.witnesses[name]["domain_error"]
    assert rep.quotient_sign_ok is None


def test_report_json_serializable():
    import json
    rep = check_hypotheses(power_coupled_system(1.0, 2.0), BOX, samples=128, seed=3)
    text = json.dumps(rep.to_json(), sort_keys=True)
    assert "statuses" in text


def test_which_restricts_checks():
    rep = check_hypotheses(power_coupled_system(1.0, 1.0), BOX, samples=128,
                           which=("positivity",), seed=0)
    assert rep.statuses["positivity"] == "pass"
    assert rep.statuses["gradient_lipschitz"] == "not-applicable"


def test_hypothesis_names_cover_tuple():
    assert len(HYPOTHESES) == 8
    rep = check_hypotheses(power_coupled_system(1.0, 1.0), BOX, samples=64, seed=0)
    assert set(rep.statuses) == set(HYPOTHESES)


def test_system_roundtrip():
    sys_ = power_coupled_system(1.25, 2.5)
    sys2 = RhsSystem.from_json(sys_.to_json())
    x = np.zeros((3, 2))
    z = np.array([[-0.5, -1.5]] * 3)
    p = np.zeros((3, 2))
    for i in (1, 2):
        assert np.allclose(eval_f(sys2, i, x, z, p), eval_f(sys_, i, x, z, p))


def test_empty_system_rejected():
    with pytest.raises(ConfigurationError):
        RhsSystem(components=(), n=2)
