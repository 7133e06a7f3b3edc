import numpy as np
import pytest

from masym.domains import (Ball, CriticalPlanes, Ellipse, GeometryError,
                           SmoothLevelSet, Tube, critical_planes, domain_from_json,
                           domain_to_json, half_domain_mask, reflect_point)


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
    assert abs(cp.Lam0 - cp.Lam2) <= 1e-4
    tube = Tube(cross_section=e, half_height=1.0)
    cpt = critical_planes(tube, [s, s, 0.0])
    assert cpt.lam0 < cpt.Lam0 <= cpt.Lam2 + 1e-9
    assert abs(cpt.Lam0 - cp.Lam0) <= 1e-6


def test_offcenter_ball_planes():
    b = Ball(center=(0.5, -0.25), radius=2.0)
    cp = critical_planes(b, [1.0, 0.0])
    assert abs(cp.lam0 - (-1.5)) <= 1e-9
    assert abs(cp.Lam0 - 0.5) <= 1e-9


def test_nonunit_direction_rejected():
    b = Ball(center=(0.0, 0.0), radius=1.0)
    with pytest.raises(GeometryError):
        critical_planes(b, [1.0, 1.0])


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
    d = SmoothLevelSet(
        phi=lambda x: np.sum(np.asarray(x, float) ** 2, axis=-1) - 1.0,
        grad_phi=lambda x: 2.0 * np.asarray(x, float),
        bbox=((-1.0, 1.0), (-1.0, 1.0)),
    )
    cp = critical_planes(d, [1.0, 0.0])
    assert abs(cp.lam0 + 1.0) <= 1e-3
    assert abs(cp.Lam0) <= 1e-3


def test_critical_planes_invariant_lam0_below_lam2():
    """Lam0 <= Lam2 (Lam0 = min(Lam1, Lam2)); a Lam0 past Lam2 is rejected."""
    cp = CriticalPlanes(nu=(1.0, 0.0), lam0=-1.0, Lam0=-0.2, Lam1=0.0, Lam2=-0.1)
    assert cp.Lam0 < cp.Lam2
    CriticalPlanes(nu=(1.0, 0.0), lam0=-1.0, Lam0=-0.1 + 5e-10, Lam1=0.0, Lam2=-0.1)
    with pytest.raises(GeometryError):
        CriticalPlanes(nu=(1.0, 0.0), lam0=-1.0, Lam0=-0.1 + 1e-8, Lam1=0.0, Lam2=-0.1)


def test_half_domain_mask():
    b = Ball(center=(0.0, 0.0), radius=1.0)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.0, 1.0, size=(200, 2))
    mask = half_domain_mask(b, [1.0, 0.0], -0.25, pts)
    keep = mask.mask
    assert np.all(pts[keep, 0] < -0.25 + 1e-12)
    assert np.all(np.linalg.norm(pts[keep], axis=1) < 1.0)


def test_domain_json_roundtrip():
    for d in (Ball(center=(0.25, -0.5), radius=1.5),
              Ellipse(center=(0.0, 0.0), semi_axes=(2.0, 1.0)),
              Tube(cross_section=Ball(center=(0.0,), radius=1.0), half_height=2.0)):
        d2 = domain_from_json(domain_to_json(d))
        assert type(d2) is type(d)
        assert np.allclose(d2.bounding_box(), d.bounding_box())
