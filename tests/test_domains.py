import numpy as np
import pytest
from scipy.optimize import brentq

from masym.domains import (Ball, ConvexityError, CriticalPlanes, Ellipse, GeometryError,
                           SmoothLevelSet, Tube, critical_planes, domain_from_json,
                           domain_to_json, reflect_point)


def test_reflect_point_involution():
    rng = np.random.default_rng(3)
    for _ in range(20):
        nu = rng.normal(size=2)
        nu /= np.linalg.norm(nu)
        lam = rng.normal()
        x = rng.normal(size=2)
        y = reflect_point(x, nu, lam)
        assert np.allclose(reflect_point(y, nu, lam), x, atol=1e-13)
        mid = 0.5 * (x + y)
        assert abs(mid @ nu - lam) < 1e-13


def _scalar_reflection(x, nu, lam):
    """The reflection of one point in Python floats, x . nu from its first term."""
    step = 2.0 * (lam - (x[0] * nu[0] + x[1] * nu[1]))
    return [x[0] + step * nu[0], x[1] + step * nu[1]]


def test_reflect_point_of_a_slice_is_the_slice_of_the_reflection():
    """Along nu at 0.5 rad, the reflection of a slice of 6,400 points, each
    point alone and three longer runs, is that slice of the reflection of
    all of them to the bit, at one plane position and at one position per
    point, and every point's reflection is the scalar formula's.  Points
    and positions hold signed zeros: a -0.0 projection is kept, as a sum
    started at 0 would make it +0.0, and at lam = -0.0 that sign reaches
    the reflection."""
    rng = np.random.default_rng(33)
    nu = np.array([np.cos(0.5), np.sin(0.5)])
    x = rng.uniform(-1.0, 1.0, size=(6400, 2))
    x[:4] = [[-0.0, -0.0], [-0.0, 0.0], [0.0, -0.0], [0.0, 0.0]]
    lams = rng.uniform(-0.5, 0.5, size=6400)
    lams[:8] = [-0.0, -0.0, -0.0, -0.0, 0.0, 0.0, 0.0, 0.0]
    x[4:8] = x[:4]
    whole, per_point = reflect_point(x, nu, 0.3), reflect_point(x, nu, lams)
    slices = [(k, k + 1) for k in range(6400)] + [(0, 8), (100, 1123), (2048, 6400)]
    for a, b in slices:
        assert reflect_point(x[a:b], nu, 0.3).tobytes() == whole[a:b].tobytes()
        assert reflect_point(x[a:b], nu, lams[a:b]).tobytes() == per_point[a:b].tobytes()
    expected = [_scalar_reflection(p, nu, lam) for p, lam in zip(x.tolist(), lams.tolist())]
    assert per_point.tobytes() == np.array(expected).tobytes()
    assert reflect_point(x[0], nu, -0.0).tobytes() == np.array([0.0, 0.0]).tobytes()


def test_ball_basics():
    b = Ball(center=(0.0, 0.0), radius=1.0)
    assert b.dimension == 2
    assert b.contains([0.3, 0.4])
    assert not b.contains([0.8, 0.8])
    pt = b.boundary_param(0.25)
    assert np.linalg.norm(pt) == pytest.approx(1.0)
    n = b.boundary_normal(pt)
    assert np.linalg.norm(n) == pytest.approx(1.0)
    assert n @ pt == pytest.approx(1.0)


def test_ball_critical_planes_exact():
    b = Ball(center=(0.0, 0.0), radius=1.0)
    cp = critical_planes(b, [1.0, 0.0])
    assert abs(cp.lam0 + 1.0) <= 1e-9
    assert abs(cp.Lam0) <= 1e-9
    assert abs(cp.Lam2) <= 1e-9


def test_ellipse_critical_planes_exact():
    e = Ellipse(center=(0.0, 0.0), semi_axes=(2.0, 1.0))
    cp = critical_planes(e, [1.0, 0.0])
    assert abs(cp.lam0 + 2.0) <= 1e-9
    assert abs(cp.Lam0) <= 1e-9
    cp = critical_planes(e, [0.0, 1.0])
    assert abs(cp.lam0 + 1.0) <= 1e-9
    assert abs(cp.Lam0) <= 1e-9


@pytest.mark.parametrize("center", [(0.0, 0.0), (0.3, -0.2)], ids=["centred", "off-centre"])
@pytest.mark.parametrize("nu", [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)],
                         ids=["+e1", "-e1", "+e2", "-e2"])
def test_ellipse_planes_along_a_principal_axis_are_exact(monkeypatch, center, nu):
    """Along a principal axis an ellipse is symmetric about the plane through
    its centre, so its planes are a ball's closed forms, with no boundary
    search: lam0 = c . nu - a_k and Lam0 = Lam2 = c . nu to the bit."""
    import masym.domains as domains

    def search(*args):
        raise AssertionError("an axis direction searched the boundary")

    monkeypatch.setattr(domains, "_boundary_points_normal_to", search)
    axes = (1.0, 0.6)
    cp = critical_planes(Ellipse(center=center, semi_axes=axes), nu)
    k = 0 if nu[1] == 0.0 else 1
    c = center[k] * nu[k]
    assert (cp.lam0, cp.Lam0, cp.Lam2) == (c - axes[k], c, c)


def test_ellipse_slanted_direction_planes():
    """Off the principal axes the central plane is no symmetry plane:
    Lam0, the least chord midpoint, sits at Lam2 = -sqrt(0.9), below 0."""
    e = Ellipse(center=(0.0, 0.0), semi_axes=(2.0, 1.0))
    s = 1.0 / np.sqrt(2.0)
    cp = critical_planes(e, [s, s])
    assert cp.lam0 < cp.Lam0 <= cp.Lam2 + 1e-9
    assert abs(cp.Lam2 + np.sqrt(0.9)) <= 1e-9
    assert abs(cp.Lam0 - cp.Lam2) <= 1e-8
    tube = Tube(cross_section=e, half_height=1.0)
    cpt = critical_planes(tube, [s, s, 0.0])
    assert cpt.lam0 < cpt.Lam0 <= cpt.Lam2 + 1e-9
    assert abs(cpt.Lam0 - cp.Lam0) <= 1e-8
    assert abs(cpt.Lam0 - cpt.Lam2) <= 1e-8
    assert abs(cpt.Lam2 + np.sqrt(0.9)) <= 1e-9


ORACLE_ELLIPSES = [((0.0, 0.0), (2.0, 1.0)), ((0.3, -0.2), (1.0, 0.6)),
                   ((5.0, -3.0), (1.0, 0.25))]
ORACLE_ANGLES = [0.0, 0.3, np.pi / 4, 1.0, np.pi / 2, 2.0, 2.5, np.pi, 4.0, 5.5]
THIN_ELLIPSES = [(1.0, 0.01), (1.0, 0.001), (1000.0, 1.0), (3.0, 0.001)]
THIN_ANGLES = [0.05, 0.3, np.pi / 4, 2.0, 5.5]


@pytest.mark.parametrize("center, axes, theta", [
    *[(c, a, th) for c, a in ORACLE_ELLIPSES for th in ORACLE_ANGLES],
    *[((0.0, 0.0), (1.0, b), th) for b in (0.01, 0.001) for th in (0.0, np.pi / 2)],
    *[((0.0, 0.0), a, th) for a in THIN_ELLIPSES for th in THIN_ANGLES],
])
def test_ellipse_planes_match_the_exact_formulas(center, axes, theta):
    """The boundary-normal search gives an ellipse's planes to 1e-12 of its
    diameter: the first touch c.nu - |a nu|, Lam2 from the distance of
    w = a nu to the line of v = nu / a, and Lam0 = c.nu on a principal axis.
    Off the axes the chord midpoints lie on the diameter conjugate to nu,
    whose lower end is the Lam2 point, so Lam0 = Lam2."""
    c, a = np.asarray(center), np.asarray(axes)
    nu = np.array([np.cos(theta), np.sin(theta)])
    cp = critical_planes(Ellipse(center=center, semi_axes=axes), nu)
    tol = 1e-12 * 2.0 * np.linalg.norm(a)
    w, v = a * nu, nu / a
    assert abs(cp.lam0 - (c @ nu - np.linalg.norm(w))) <= tol
    Lam2 = c @ nu - np.linalg.norm(w - (w @ v) / (v @ v) * v)
    assert abs(cp.Lam2 - Lam2) <= tol
    assert abs(cp.Lam0 - (c @ nu if min(abs(nu)) < 1e-12 else Lam2)) <= tol


@pytest.mark.parametrize("scale", [1e-6, 1.0, 100.0])
def test_slanted_ellipse_level_set_planes_do_not_depend_on_level_scale(scale):
    """Lam0 comes from ray exits, not from level values, so a level set of
    the slanted ellipse finds Lam0 at -sqrt(0.9) whatever its scale."""
    d = SmoothLevelSet(
        phi=lambda x: scale * ((x[..., 0] / 2.0) ** 2 + x[..., 1] ** 2 - 1.0),
        grad_phi=lambda x: scale * np.stack([x[..., 0] / 2.0, 2.0 * x[..., 1]], axis=-1),
        bbox=((-2.0, 2.0), (-1.0, 1.0)),
    )
    s = 1.0 / np.sqrt(2.0)
    cp = critical_planes(d, [s, s])
    assert abs(cp.Lam0 + np.sqrt(0.9)) <= 1e-8


@pytest.mark.parametrize("c", [0.2, 0.3, 0.4])
def test_level_set_lam0_at_an_interior_tangency(c):
    """On x^2 + y^2 + c e^x < 1 + c the chords along (1, 0) have their least
    midpoint at y = 0, halfway between the roots of x^2 + c e^x = 1 + c, where
    the reflected cap first touches the boundary inside; along (0, 1) the
    domain is symmetric about y = 0."""
    d = SmoothLevelSet(
        phi=lambda x: x[..., 0] ** 2 + x[..., 1] ** 2 + c * np.exp(x[..., 0]) - 1.0 - c,
        grad_phi=lambda x: np.stack([2.0 * x[..., 0] + c * np.exp(x[..., 0]),
                                     2.0 * x[..., 1]], axis=-1),
        bbox=((-1.2, 1.0), (-1.1, 1.1)),
    )
    def g(x):
        return x * x + c * np.exp(x) - 1.0 - c

    x_star = brentq(lambda x: 2.0 * x + c * np.exp(x), -1.0, 0.0, xtol=1e-15)
    x_lo, x_hi = brentq(g, -1.2, x_star, xtol=1e-15), brentq(g, x_star, 1.0, xtol=1e-15)
    diam = d.bbox_diameter()
    assert abs(critical_planes(d, [1.0, 0.0]).Lam0 - 0.5 * (x_lo + x_hi)) <= 1e-9 * diam
    assert abs(critical_planes(d, [0.0, 1.0]).Lam0) <= 1e-12 * diam


def test_offcenter_ball_planes():
    b = Ball(center=(0.5, -0.25), radius=2.0)
    cp = critical_planes(b, [1.0, 0.0])
    assert abs(cp.lam0 - (-1.5)) <= 1e-9
    assert abs(cp.Lam0 - 0.5) <= 1e-9


def test_nonunit_direction_rejected():
    b = Ball(center=(0.0, 0.0), radius=1.0)
    with pytest.raises(GeometryError):
        critical_planes(b, [1.0, 1.0])


@pytest.mark.parametrize("nu", [[np.nan, 0.0], [1.0, np.nan]])
def test_nan_direction_rejected(nu):
    """A NaN norm is not within 1e-12 of 1, so neither the planes nor a
    reflection accept the direction."""
    b = Ball(center=(0.0, 0.0), radius=1.0)
    with pytest.raises(GeometryError, match="unit vector"):
        critical_planes(b, nu)
    with pytest.raises(GeometryError, match="unit vector"):
        reflect_point([0.5, 0.0], nu, 0.0)


def test_diagonal_direction_on_ball():
    b = Ball(center=(0.0, 0.0), radius=1.0)
    s = 1.0 / np.sqrt(2.0)
    cp = critical_planes(b, [s, s])
    assert abs(cp.lam0 + 1.0) <= 1e-9
    assert abs(cp.Lam0) <= 1e-9


def test_tube_geometry():
    t = Tube(cross_section=Ball(center=(0.0,), radius=1.0), half_height=2.0)
    assert t.dimension == 2
    assert t.contains([0.5, 1.5])
    assert not t.contains([0.5, 2.5])
    assert not t.contains([1.5, 0.0])
    bb = t.bounding_box()
    assert np.allclose(bb[:, 0], [-1.0, -2.0]) and np.allclose(bb[:, 1], [1.0, 2.0])


def test_tube_planes_cross_direction():
    t = Tube(cross_section=Ball(center=(0.0,), radius=1.0), half_height=2.0)
    cp = critical_planes(t, [1.0, 0.0])
    assert abs(cp.lam0 + 1.0) <= 1e-9
    assert abs(cp.Lam0) <= 1e-9


def test_tube_planes_refuse_the_axis_direction():
    t = Tube(cross_section=Ball(center=(0.0,), radius=1.0), half_height=1.0)
    with pytest.raises(GeometryError, match="orthogonal to the axis"):
        critical_planes(t, (0.0, 1.0))


def test_smooth_level_set_matches_ball():
    """A level-set description of the unit disk yields the same planes."""
    d = _unit_disk_level_set()
    cp = critical_planes(d, [1.0, 0.0])
    assert abs(cp.lam0 + 1.0) <= 1e-3
    assert abs(cp.Lam0) <= 1e-3


def test_critical_planes_invariant_lam0_below_lam2():
    """Lam0 <= Lam2; a Lam0 past Lam2 is rejected."""
    cp = CriticalPlanes(nu=(1.0, 0.0), lam0=-1.0, Lam0=-0.2, Lam2=-0.1)
    assert cp.Lam0 < cp.Lam2
    CriticalPlanes(nu=(1.0, 0.0), lam0=-1.0, Lam0=-0.1 + 5e-10, Lam2=-0.1)
    with pytest.raises(GeometryError):
        CriticalPlanes(nu=(1.0, 0.0), lam0=-1.0, Lam0=-0.1 + 1e-8, Lam2=-0.1)


def _bisected_exit(domain, o, d):
    """Largest t with o + t d inside, by bisection on contains from a far bracket."""
    lo, hi = 0.0, 1e3
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if domain.contains(o + mid * d):
            lo = mid
        else:
            hi = mid
    return lo


def _unit_disk_level_set():
    return SmoothLevelSet(
        phi=lambda x: np.sum(np.asarray(x, float) ** 2, axis=-1) - 1.0,
        grad_phi=lambda x: 2.0 * np.asarray(x, float),
        bbox=((-1.0, 1.0), (-1.0, 1.0)),
    )


@pytest.mark.parametrize("domain", [
    Ball(center=(0.0, 0.0), radius=1.0),
    Ellipse(center=(0.3, -0.2), semi_axes=(2.0, 0.5)),
    Tube(cross_section=Ball(center=(0.0,), radius=1.0), half_height=2.0),
    Tube(cross_section=Ellipse(center=(0.1, 0.0), semi_axes=(1.0, 0.5)), half_height=0.7),
    _unit_disk_level_set(),
], ids=["ball", "ellipse", "tube", "tube3d", "levelset"])
def test_ray_exit_matches_bisection(domain):
    rng = np.random.default_rng(11)
    bb = domain.bounding_box()
    o = bb[:, 0] + (bb[:, 1] - bb[:, 0]) * rng.random((400, domain.dimension))
    o = o[domain.contains(o)][:40]
    d = rng.normal(size=o.shape) * rng.uniform(0.1, 3.0, size=(len(o), 1))
    if isinstance(domain, Tube):
        d[:5, :-1] = 0.0      # along the axis: the cross-section never exits
    t = domain.ray_exit(o, d)
    assert t.shape == (len(o),)
    ref = np.array([_bisected_exit(domain, oi, di) for oi, di in zip(o, d)])
    assert np.max(np.abs(t - ref)) <= 1e-12
    assert np.all(np.isinf(domain.ray_exit(o, np.zeros_like(o))))


@pytest.mark.parametrize("domain", [
    Ball(center=(0.0, 0.0), radius=1.0),
    Ellipse(center=(0.3, -0.2), semi_axes=(2.0, 0.5)),
    Tube(cross_section=Ball(center=(0.0,), radius=1.0), half_height=1.5),
    Tube(cross_section=Ball(center=(0.0,), radius=1.0), half_height=1.0),
    _unit_disk_level_set(),
], ids=["ball", "ellipse", "tube", "square-tube", "levelset"])
def test_boundary_param_lies_on_the_boundary_with_outer_normals(domain):
    c = domain.interior_point
    assert domain.contains(c)
    p = domain.boundary_param(np.linspace(0.0, 1.0, 512, endpoint=False))
    assert np.max(np.abs(domain.ray_exit(c, p - c) - 1.0)) <= 1e-12
    n = domain.boundary_normal(p)
    assert np.max(np.abs(np.linalg.norm(n, axis=-1) - 1.0)) <= 1e-12
    assert np.all(np.sum(n * (p - c), axis=-1) > 0.0)


def test_symmetric_domains_take_their_centre_as_interior_point():
    """The deepest nodes of a symmetric domain tie up to round-off; the tie
    goes to the box centre, whichever way the level function rounds."""
    for domain in (Ball(center=(0.0, 0.0), radius=1.0), _unit_disk_level_set(),
                   Tube(cross_section=Ball(center=(0.0,), radius=1.0), half_height=1.5)):
        np.testing.assert_array_equal(domain.interior_point, [0.0, 0.0])
    ellipse = Ellipse(center=(0.3, -0.2), semi_axes=(2.0, 0.5))
    np.testing.assert_allclose(ellipse.interior_point, [0.3, -0.2], atol=1e-15)


def test_domain_json_roundtrip():
    for d in (Ball(center=(0.25, -0.5), radius=1.5),
              Ellipse(center=(0.0, 0.0), semi_axes=(2.0, 1.0)),
              Tube(cross_section=Ball(center=(0.0,), radius=1.0), half_height=2.0)):
        d2 = domain_from_json(domain_to_json(d))
        assert type(d2) is type(d)
        assert np.allclose(d2.bounding_box(), d.bounding_box())


@pytest.mark.parametrize("make, key", [
    (lambda: Ball(center=(0.0, 0.0), radius=True), "radius"),
    (lambda: Ball(center=(True, 0.0), radius=1.0), "center"),
    (lambda: Ball(center=(0.0, 0.0), radius=float("inf")), "radius"),
    (lambda: Ball(center=(float("nan"), 0.0), radius=1.0), "center"),
    (lambda: Ball(center=(0.0, 0.0), radius=-1.0), "radius"),
    (lambda: Ellipse(center=(0.0, 0.0), semi_axes=(1.0, True)), "semi_axes"),
    (lambda: Ellipse(center=(0.0, float("inf")), semi_axes=(1.0, 0.5)), "center"),
    (lambda: Ellipse(center=(0.0, 0.0), semi_axes=(1.0, 0.0)), "semi_axes"),
    (lambda: Tube(cross_section=Ball(center=(0.0,), radius=1.0), half_height=True), "half_height"),
    (lambda: Tube(cross_section=Ball(center=(0.0,), radius=1.0), half_height=float("nan")),
     "half_height"),
    (lambda: Tube(cross_section=Ball(center=(0.0,), radius=1.0), half_height=10 ** 400),
     "half_height"),
], ids=["radius-true", "center-true", "radius-inf", "center-nan", "radius-negative",
        "semi-axis-true", "center-inf", "semi-axis-zero", "half-height-true", "half-height-nan",
        "half-height-10^400"])
def test_shape_numbers_are_checked_before_conversion(make, key):
    """A boolean is not a number, and a size must be positive and finite: a
    shape rejects either before float() reads it, naming the key."""
    with pytest.raises(GeometryError, match=f"^{key} must be") as err:
        make()
    assert err.value.key == key


def test_shape_sizes_are_stored_as_floats():
    ball = Ball(center=[0, 1], radius=2)
    tube = Tube(cross_section=ball, half_height=1)
    assert ball.center == (0.0, 1.0) and type(ball.radius) is float
    assert type(tube.half_height) is float
    assert domain_to_json(ball) == {"shape": "ball", "center": [0.0, 1.0], "radius": 2.0}


@pytest.mark.parametrize("obj, key, message", [
    ({"shape": "ball", "center": [0.0, 0.0], "radius": 1.0, "bogus": 3}, "bogus",
     "unknown domain key 'bogus'; allowed: shape, center, radius"),
    ({"shape": "tube", "half_height": 1.0,
      "cross_section": {"shape": "ball", "center": [0.0], "radius": 1.0, "semi_axes": [1.0]}},
     "semi_axes", "unknown cross_section key 'semi_axes'"),
    ({"shape": "disk", "center": [0.0, 0.0], "radius": 1.0}, "domain",
     "domain must be a JSON object with shape one of ball, ellipse, tube"),
    ([0.0, 0.0], "domain", "domain must be a JSON object"),
    ({"shape": "tube", "cross_section": 1.0, "half_height": 1.0}, "cross_section",
     "cross_section must be a JSON object"),
    ({"shape": "ellipse", "center": [0.0, 0.0], "semi_axes": [1.0, float("nan")]}, "semi_axes",
     "semi_axes must be a list of positive finite numbers"),
], ids=["unknown-key", "unknown-nested-key", "unknown-shape", "not-an-object",
        "cross-section-not-an-object", "nan-semi-axis"])
def test_domain_from_json_rejects_naming_the_key(obj, key, message):
    with pytest.raises(GeometryError, match=message) as err:
        domain_from_json(obj)
    assert err.value.key == key


def test_ball_level_is_the_norm_to_the_bit():
    """The level is a sum over the coordinates, for a ball of any dimension;
    it equals the norm along the last axis bit for bit."""
    rng = np.random.default_rng(5)
    for center in ((0.25, -0.5), (0.3,), (0.1, -0.2, 0.4)):
        ball = Ball(center=center, radius=1.5)
        x = rng.uniform(-2.0, 2.0, (3200, len(center)))
        ref = np.linalg.norm(x - np.asarray(center), axis=-1) - 1.5
        assert ball.level(x).tobytes() == ref.tobytes()


def _exp_level_set(c, grad_calls=None):
    """x^2 + y^2 + c e^x < 1 + c; ``grad_calls`` collects the row count of
    every gradient call."""
    def grad_phi(x):
        if grad_calls is not None:
            grad_calls.append(len(x))
        return np.stack([2.0 * x[..., 0] + c * np.exp(x[..., 0]), 2.0 * x[..., 1]], axis=-1)

    return SmoothLevelSet(
        phi=lambda x: x[..., 0] ** 2 + x[..., 1] ** 2 + c * np.exp(x[..., 0]) - 1.0 - c,
        grad_phi=grad_phi, bbox=((-1.2, 1.0), (-1.1, 1.1)))


@pytest.mark.parametrize("c", [0.2, 0.3, 0.4])
def test_level_set_lam0_and_Lam2_meet_the_root_references(c):
    """Along (1, 0) the first touch is the left root x_lo of
    g(x) = x^2 + c e^x - 1 - c and the tangency is at the minimizer x* of g;
    along (0, 1) the first touch is at y = -sqrt(-g(x*)) and the tangencies
    at y = 0."""
    def g(x):
        return x * x + c * np.exp(x) - 1.0 - c

    d = _exp_level_set(c)
    x_star = brentq(lambda x: 2.0 * x + c * np.exp(x), -1.0, 0.0, xtol=1e-15)
    x_lo = brentq(g, -1.2, x_star, xtol=1e-15)
    tol = 1e-12 * d.bbox_diameter()
    along_x, along_y = critical_planes(d, [1.0, 0.0]), critical_planes(d, [0.0, 1.0])
    assert abs(along_x.lam0 - x_lo) <= tol and abs(along_x.Lam2 - x_star) <= tol
    assert abs(along_y.lam0 + np.sqrt(-g(x_star))) <= tol and abs(along_y.Lam2) <= tol


@pytest.mark.parametrize("nu", [[1.0, 0.0], [0.6, 0.8]])
def test_level_set_planes_take_one_boundary_sample(nu):
    """lam0 and Lam2 read off one 4096-point sample of boundary normals."""
    calls = []
    critical_planes(_exp_level_set(0.3, calls), nu)
    assert calls.count(4096) == 1


def test_nonconvex_level_set_raises_with_a_witness_line():
    """Two discs of radius 0.5 about (-0.6, 0) and (0.6, 0): a line along
    (1, 0) at |y| < 0.5 meets both, so the convexity sample that level sets
    still take finds a disconnected line."""
    def phi(x):
        return np.minimum(np.hypot(x[..., 0] + 0.6, x[..., 1]),
                          np.hypot(x[..., 0] - 0.6, x[..., 1])) - 0.5

    d = SmoothLevelSet(phi=phi, grad_phi=lambda x: x, bbox=((-1.1, 1.1), (-0.5, 0.5)))
    with pytest.raises(ConvexityError) as err:
        critical_planes(d, [1.0, 0.0])
    assert err.value.direction == (1.0, 0.0)
    assert len(err.value.witness_point) == 2 and abs(err.value.witness_point[1]) < 0.5


@pytest.mark.parametrize("theta", [0.0, 0.4])
def test_ellipse_planes_take_no_convexity_sample(monkeypatch, theta):
    """An ellipse is convex by construction: its planes compute with the
    convexity sample made to raise, lam0 at its support value."""
    import masym.domains as domains

    def sample(domain, nu):
        raise AssertionError("an ellipse was sampled for convexity")

    monkeypatch.setattr(domains, "check_convex_in_direction", sample)
    nu = np.array([np.cos(theta), np.sin(theta)])
    planes = critical_planes(Ellipse(center=(0.2, -0.1), semi_axes=(1.0, 0.6)), nu)
    support = np.hypot(1.0 * nu[0], 0.6 * nu[1])
    assert abs(planes.lam0 - (np.dot((0.2, -0.1), nu) - support)) <= 1e-9
    assert planes.lam0 < planes.Lam0 <= planes.Lam2 + 1e-9
