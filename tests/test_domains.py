import numpy as np
import pytest

from masym.domains import (Ball, CriticalPlanes, Ellipse, GeometryError,
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


def test_ellipse_slanted_direction_planes():
    """Off the principal axes the central plane is no symmetry plane:
    Lam0 is found by bisection and sits at Lam2 = -sqrt(0.9), below 0."""
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


@pytest.mark.parametrize("scale", [1e-6, 1.0, 100.0])
def test_slanted_ellipse_level_set_planes_do_not_depend_on_level_scale(scale):
    """The reflected-cap test allows the level's own round-off, so a level
    set of the slanted ellipse finds Lam0 at -sqrt(0.9) whatever its scale."""
    d = SmoothLevelSet(
        phi=lambda x: scale * ((x[..., 0] / 2.0) ** 2 + x[..., 1] ** 2 - 1.0),
        grad_phi=lambda x: scale * np.stack([x[..., 0] / 2.0, 2.0 * x[..., 1]], axis=-1),
        bbox=((-2.0, 2.0), (-1.0, 1.0)),
    )
    s = 1.0 / np.sqrt(2.0)
    cp = critical_planes(d, [s, s])
    assert abs(cp.Lam0 + np.sqrt(0.9)) <= 1e-8


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
