import warnings

import numpy as np
import pytest

from masym import rhs
from masym.expressions import Expr, ExpressionDomainError, parse
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


@pytest.mark.parametrize("d", [*range(1, 13), 20, 32])
def test_sobol_points_equal_scipy_bit_for_bit(d):
    """The screen's numpy Sobol' points are scipy's scrambled ones, bit for
    bit, for every power-of-2 block up to 2 ** 14 points."""
    from scipy.stats import qmc

    unit, none = np.array([[0.0, 1.0]] * d), np.zeros((0, 2))
    for seed in (0, 7, 2**31 - 2):
        for k in range(15):
            want = qmc.Sobol(d, scramble=True, seed=seed).random_base2(k)
            got = np.hstack(rhs._sobol_samples(unit, none, none, 2**k, seed))
            assert got.dtype == want.dtype and np.array_equal(got, want), (seed, k)


def test_committed_sobol_rows_are_the_installed_scipy_rows():
    """The screen's 32 committed rows of Joe & Kuo's table are the first rows
    of the file scipy installs, whose vinit rows pad them with zeros."""
    import os
    import scipy

    path = os.path.join(os.path.dirname(scipy.__file__), "stats", "_sobol_direction_numbers.npz")
    if not os.path.exists(path):
        pytest.skip(f"this scipy ships no {path}; the bit-for-bit test compares the points")
    with np.load(path) as table:
        poly, vinit = table["poly"], table["vinit"]
    d = len(rhs._SOBOL_POLY)
    assert d == len(rhs._SOBOL_VINIT) == 32
    assert poly[:d].tolist() == list(rhs._SOBOL_POLY)
    assert vinit[:d].tolist() == [list(row) + [0] * (vinit.shape[1] - len(row))
                                  for row in rhs._SOBOL_VINIT]


@pytest.mark.parametrize("n, m, allowed", [(2, 28, True), (2, 29, False), (15, 2, True),
                                           (16, 1, False)])
def test_screen_coordinates_past_the_table_raise_before_sampling(monkeypatch, n, m, allowed):
    """The screen samples 2n + m coordinates, one committed table row each:
    up to 32 pass, more raise a configuration error before any point is
    drawn."""
    comps = tuple("0 - z1" for _ in range(m))
    system = RhsSystem(components=comps, n=n)
    box = {"x": [[-1.0, 1.0]] * n, "z": [[-2.0, -0.1]] * m, "p": [[-1.0, 1.0]] * n}
    if allowed:
        rep = check_hypotheses(system, box, samples=4, which=["positivity"])
        assert rep.statuses["positivity"] == "pass"
        return
    monkeypatch.setattr(rhs, "_sobol_samples",
                        lambda *args: pytest.fail("the sampler was called"))
    with pytest.raises(ConfigurationError, match=f"2n \\+ m = {2 * n + m} coordinates"):
        check_hypotheses(system, box, samples=4)


@pytest.mark.parametrize("samples", [0, 2**30 + 1, 2**62])
def test_samples_outside_the_sequence_raise_before_sampling(monkeypatch, samples):
    """The sequence holds 1 to 2 ** 30 points: any other count raises a
    configuration error naming samples, and no point is drawn."""
    monkeypatch.setattr(rhs, "_sobol_samples",
                        lambda *args: pytest.fail("the sampler was called"))
    with pytest.raises(ConfigurationError, match=r"samples must be from 1 to 2\*\*30") as err:
        check_hypotheses(power_coupled_system(1.0, 1.0), BOX, samples=samples)
    assert err.value.key == "samples"


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
    assert rep.box == BOX


ONE_BOX = {"x": BOX["x"], "z": [[-2.0, -0.1]], "p": [[-1.0, 1.0], [-1.0, 1.0]]}


@pytest.mark.parametrize("source, samples, status", [
    ("1 + abs(p1) ^ 0.5", 10_000, "fail"),
    ("1 + abs(p1) ^ 0.5", 128, "pass"),  # no sample lies near enough the kink
    ("abs(p1)", 10_000, "pass"),
    ("p2 ^ 2", 10_000, "pass"),
    ("exp(p1)", 10_000, "pass"),
    ("abs(p1) ^ 1.5", 10_000, "pass"),
    # Lipschitz constant 1 under values whose rounding dwarfs the 1e-4 step
    ("1e13 + p1", 1024, "pass"),
    ("1e13 + p1", 10_000, "pass"),
    ("1e14 + p1", 1024, "pass"),
    ("1e14 + p1", 10_000, "pass"),
])
def test_gradient_lipschitz_fails_where_the_quotient_grows(source, samples, status):
    """gradient_lipschitz fails when the quotient bound at step 1e-4 is more
    than twice the bound at 1e-2 plus its rounding error; the witness is the sample where the 1e-4
    quotient peaks, with the three bounds."""
    sys_ = RhsSystem(components=(parse(source),), n=2)
    rep = check_hypotheses(sys_, ONE_BOX, samples=samples, which=("gradient_lipschitz",))
    assert rep.statuses["gradient_lipschitz"] == status
    if status == "fail":
        witness = rep.witnesses["gradient_lipschitz"]
        bounds = witness["bounds"]
        assert witness["component"] == 1 and bounds[2] > 2 * bounds[0]
        assert rep.lipschitz_p_estimate == (max(bounds),)
        # the witness sample sits within a step of the kink at p1 = 0
        assert abs(witness["p"][0]) < 1e-3


def test_split_with_a_non_lipschitz_part_fails():
    split = ("abs(z1 + 1) ^ 0.5", "0 - z1")
    sys_ = RhsSystem(components=(parse("abs(z1 + 1) ^ 0.5 - z1"),), n=2,
                     splits=(split,))
    rep = check_hypotheses(sys_, ONE_BOX, samples=10_000, which=("own_component_split",))
    assert rep.statuses["own_component_split"] == "fail"
    bounds = rep.witnesses["own_component_split"]["bounds"]
    assert bounds[2] > 2 * bounds[0]
    lipschitz = RhsSystem(components=(parse("exp(z1) - z1"),), n=2,
                          splits=(("exp(z1)", "0 - z1"),))
    rep = check_hypotheses(lipschitz, ONE_BOX, samples=10_000, which=("own_component_split",))
    assert rep.statuses["own_component_split"] == "pass"


@pytest.mark.parametrize("kwargs, message", [
    ({"lipschitz_p": (float("nan"), 0.0)}, "lipschitz_p entries"),
    ({"lipschitz_z": (float("inf"), 0.0)}, "lipschitz_z entries"),
    ({"lipschitz_z": (-1000.0, 0.0)}, "lipschitz_z entries"),
    ({"lipschitz_p": ("x", True)}, "lipschitz_p entries"),
    ({"n": 0}, "n must be an integer"),
    ({"n": 2.0}, "n must be an integer"),
    ({"n": True}, "n must be an integer"),
    ({"components": ("z2", "x3")}, "component 2 uses x3"),
    ({"components": ("p3", "z1")}, "component 1 uses p3"),
    ({"components": ("z3", "z1")}, "component 1 uses z3"),
    ({"splits": ((0, "z2"), ("z3", "z1"))}, "component 2 uses z3"),
    ({"splits": (("0",), None)}, "pair of expressions"),
], ids=["lz-nan", "lz-inf", "lz-negative", "lp-not-numbers", "n-0", "n-float",
        "n-bool", "x-out-of-range", "p-out-of-range", "z-out-of-range", "split-z",
        "split-not-a-pair"])
def test_declared_constants_and_variables_are_checked(kwargs, message):
    """Declared Lipschitz constants are null or finite numbers >= 0, n is an
    integer >= 1, each split is a pair, and every variable of a component
    or split is in range."""
    system = dict({"components": ("z2", "z1"), "n": 2}, **kwargs)
    with pytest.raises(ConfigurationError, match=message):
        RhsSystem(**system)


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


@pytest.mark.parametrize("alpha, beta, key", [
    (float("nan"), 1.0, "alpha"), (float("inf"), 1.0, "alpha"), (1.0, -float("inf"), "beta"),
    (True, 1.0, "alpha"), (1.0, False, "beta"), ("2", 1.0, "alpha"), (1.0, 10 ** 400, "beta"),
    (0.0, 1.0, "alpha"),
], ids=["nan", "inf", "minus-inf", "true", "false", "string", "10^400", "zero"])
def test_power_exponent_must_be_a_positive_finite_number(alpha, beta, key):
    with pytest.raises(ConfigurationError, match=f"^{key} must be a positive finite number$") \
            as err:
        power_coupled_system(alpha, beta)
    assert err.value.key == key


def test_system_from_json_reads_three_forms():
    """The field object, the power pair and the list of components (n = 2)."""
    pair = RhsSystem.from_json({"alpha": 1, "beta": 2})
    assert pair.to_json() == power_coupled_system(1.0, 2.0).to_json()
    listed = RhsSystem.from_json(["z2", "z1"])
    assert listed.n == 2 and listed.m == 2
    fields = RhsSystem.from_json({"n": 2, "components": ["z2", "z1"]})
    assert fields.to_json() == listed.to_json()


@pytest.mark.parametrize("obj, key, message", [
    ({"alpha": 1.0, "beta": 1.0, "gamma": 2}, "gamma",
     "unknown system key 'gamma'; allowed: alpha, beta"),
    ({"n": 2, "components": ["z2", "z1"], "bogus": 1}, "bogus", "unknown system key 'bogus'"),
    ({"alpha": float("nan"), "beta": 1.0}, "alpha", "alpha must be a positive finite number"),
    ({"n": 2, "components": ["z2", "z1"], "lipschitz_z": [True, 0.0]}, "lipschitz_z",
     "lipschitz_z entries must be"),
    (3.0, None, "cannot interpret system description"),
], ids=["pair-unknown-key", "fields-unknown-key", "pair-nan", "lipschitz-true", "number"])
def test_system_from_json_rejects_naming_the_key(obj, key, message):
    with pytest.raises(ConfigurationError, match=message) as err:
        RhsSystem.from_json(obj)
    assert err.value.key == key


UNIT_BOX = {"x": [[-1.0, 1.0], [-1.0, 1.0]], "z": [[-2.0, -0.1]], "p": [[-1.0, 1.0], [-1.0, 1.0]]}


@pytest.mark.parametrize("component, split, name, keys", [
    ("2 + x1", None, "axis_evenness", {"component", "difference"}),
    ("2 + x1", None, "orthogonal_invariance", {"component", "difference", "O", "O_prime"}),
    ("2 - x1", None, "reflection_comparison", {"component", "margin"}),
    ("2 - z1", ("0", "1 - z1"), "own_component_split", {"component", "split_residual"}),
    ("2 + z1", ("0", "2 + z1"), "own_component_split", {"component", "violation"}),
], ids=["evenness", "orthogonal", "reflection", "split-residual", "split-increasing"])
def test_failing_check_reports_its_witness(component, split, name, keys):
    """Each failure names a sample (x, z, p) and the check's own evidence."""
    system = RhsSystem(components=(component,), n=2, splits=None if split is None else (split,))
    rep = check_hypotheses(system, UNIT_BOX, samples=256, seed=0)
    assert rep.statuses[name] == "fail"
    assert set(rep.witnesses[name]) == {"x", "z", "p"} | keys


def _forced(system):
    """``system`` with a term that is exactly 0 and reads x1 and every unknown
    added to each component and split part, so that no check can skip one
    of their evaluations."""
    zero = parse(" + ".join(["(x1 - x1)"] + [f"(z{j} - z{j})" for j in range(1, system.m + 1)]))

    def add(e):
        return Expr("+", (e, zero))

    return RhsSystem(components=tuple(map(add, system.components)), n=system.n,
                     splits=tuple(None if sp is None else (add(sp[0]), add(sp[1]))
                                  for sp in system.splits),
                     lipschitz_z=system.lipschitz_z, lipschitz_p=system.lipschitz_p)


# the split part 0.5 exp(0.1 z1) reads its own unknown, 0 - z2 and 0 do not,
# and component 2 does not read z1
SPLIT_SYSTEM = RhsSystem(components=("0.5 * exp(0.1 * z1) - z2", "1 - 0.5 * z2"), n=2,
                         splits=(("0.5 * exp(0.1 * z1)", "0 - z2"), ("0", "1 - 0.5 * z2")))


@pytest.mark.parametrize("samples", [64, 10_000])
@pytest.mark.parametrize("system", [
    power_coupled_system(1.0, 1.0),
    RhsSystem(components=("z2", "(0 - z1) ^ 1"), n=2),
    SPLIT_SYSTEM,
], ids=["pair", "planted", "split"])
def test_skipped_evaluations_leave_the_report_and_the_stream_unchanged(
        monkeypatch, system, samples):
    """A source is exactly constant along a variable it does not read, so the
    screen skips those evaluations: its report, and the state of every
    generator it draws from, equal those of the same system with a zero term
    that reads x1 and every unknown, where every evaluation is made."""
    default_rng = np.random.default_rng

    def screen(sys_):
        made, calls = [], []

        def recording(*args, **kwargs):
            made.append(default_rng(*args, **kwargs))
            return made[-1]

        def counting(e, *args, **kwargs):
            calls.append(e)
            return evaluate(e, *args, **kwargs)

        evaluate = Expr.__call__
        monkeypatch.setattr(rhs.np.random, "default_rng", recording)
        monkeypatch.setattr(Expr, "__call__", counting)
        rep = check_hypotheses(sys_, BOX, samples=samples, seed=7)
        monkeypatch.undo()
        return rep.to_json(), [g.bit_generator.state for g in made], len(calls)

    fast, fast_states, fast_calls = screen(system)
    full, full_states, full_calls = screen(_forced(system))
    assert fast == full
    assert fast_states == full_states and len(fast_states) >= 1
    assert fast_calls < full_calls
    assert not any("domain_error" in w for w in fast["witnesses"].values())


def test_d_ij_of_a_source_that_does_not_read_z_j_is_the_two_evaluation_quotient():
    """One evaluation gives the two-evaluation quotient bit for bit: -0.0 at
    a negative step, 0.0 at a zero or positive one, and outside the source's
    domain the same error."""
    rng = np.random.default_rng(30)
    x, p = rng.uniform(-1.0, 1.0, (9, 2)), rng.uniform(-1.0, 1.0, (9, 2))
    z = rng.uniform(-2.0, -0.1, (9, 2))
    h = np.array([-0.3, -1e-300, -0.0, 0.0, 0.0, 1e-300, 0.2, -5e-324, 1.0])
    sys_ = RhsSystem(components=("1 + x1 * x1 - z1", "(0 - z1) ^ 0.5 + p2"), n=2,
                     splits=(("0", "1 + x1 * x1 - z1"), ("p2", "(0 - z1) ^ 0.5")))
    for i, j, f in ((1, 2, sys_.components[0]), (2, 2, sys_.splits[1][1])):
        zh = z.copy()
        zh[:, j - 1] += h
        ref = np.divide(f(x, zh, p) - f(x, z, p), h, out=np.zeros(9), where=h != 0.0)
        q = d_ij(sys_, i, j, x, z, p, h)
        assert q.tobytes() == ref.tobytes()
        assert np.array_equal(np.signbit(q), h < 0)
    outside = z.copy()
    outside[4, 0] = 0.5  # (0 - z1) ^ 0.5 of a positive z1
    zh = outside.copy()
    zh[:, 1] += h
    with pytest.raises(ExpressionDomainError) as want:
        f(x, zh, p) - f(x, outside, p)
    with pytest.raises(ExpressionDomainError) as got:
        d_ij(sys_, 2, 2, x, outside, p, h)
    assert str(got.value) == str(want.value)
