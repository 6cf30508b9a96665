import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from conetorsion import (ConstantRadius, DomainError, DomainSpec, FourierRadius,
                         TableRadius, boundary_partition, domain_diameter,
                         interior_sphere_radius, make_sector_domain,
                         normal_span, offset_disk_radius, parse_radius_spec,
                         polar_curvature, serrin_radius, triangulate)
from conetorsion import geometry
from conetorsion.geometry import _PAIR_BUDGET, polyline_distance, segment_extremes
from tests import oracles
from tests.oracles import domain_area, gamma0_length

# frozen quadrature oracle values for r(t) = 1 + 0.05 cos 3t
PERT_DISK_AREA = 3.14551964440678
PERT_DISK_LEN = 6.31840225228186
PERT_DISK_R = 0.9956693223419864
PERT_DISK_RI = 0.735   # 1 / max kappa = (1+eps)^2 / (1 + 10 eps), eps = 0.05


def test_make_sector_domain_accepts_standard_cases():
    q = make_sector_domain(math.pi / 2, ConstantRadius(1.0), 256)
    assert q.is_convex and not q.is_full_plane
    d = make_sector_domain(2 * math.pi, FourierRadius(1.0, [(3, 0.05)]), 512)
    assert d.is_full_plane
    assert len(boundary_partition(d).gamma1_segments) == 0


@pytest.mark.parametrize("beta", [0.0, -1.0, 2 * math.pi + 0.1])
def test_make_sector_domain_rejects_bad_angle(beta):
    with pytest.raises(DomainError):
        make_sector_domain(beta, ConstantRadius(1.0))
    with pytest.raises(DomainError):
        DomainSpec(beta, ConstantRadius(1.0), 256)


def test_make_sector_domain_rejects_nonpositive_radius():
    with pytest.raises(DomainError):
        make_sector_domain(math.pi, FourierRadius(0.5, [(1, 1.0)]))


def test_full_plane_graph_must_close():
    # r(0) != r(2 pi) leaves the radial graph open (a loop mismatch)
    with pytest.raises(DomainError):
        make_sector_domain(2 * math.pi, TableRadius([0.0, math.pi, 2 * math.pi],
                                                    [1.0, 1.1, 1.2]))


def test_make_sector_domain_rejects_a_bare_callable():
    with pytest.raises(DomainError, match="RadiusFunction"):
        make_sector_domain(math.pi / 2, lambda t: 1.0 + 0.0 * t)


@pytest.mark.parametrize("a", [-0.6, 0.3, 0.9])
def test_offset_disk_derivatives_are_the_unit_circle(a):
    # the graph is the unit circle about (a, 0): curvature 1 at every angle,
    # and r', r'' agree with centred differences of r
    spec = make_sector_domain(math.pi, offset_disk_radius(a), 256)
    t = np.linspace(0.0, math.pi, 41)
    np.testing.assert_allclose(polar_curvature(spec, t), 1.0, rtol=1e-12)
    r, h = spec.radius_fn, 1e-4
    np.testing.assert_allclose(r.deriv(t), (r(t + h) - r(t - h)) / (2 * h), atol=1e-7)
    np.testing.assert_allclose(r.deriv2(t), (r(t + h) - 2 * r(t) + r(t - h)) / h**2,
                               atol=1e-5)


def test_table_radius_is_scipys_not_a_knot_spline():
    from scipy.interpolate import CubicSpline

    ts = np.linspace(0.0, math.pi / 2, 13)
    rs = 1.0 + 0.1 * np.sin(3 * ts) + 0.02 * ts**2
    tab, ref = TableRadius(ts, rs), CubicSpline(ts, rs)
    t = np.linspace(-0.1, math.pi / 2 + 0.1, 401)
    assert np.array_equal(tab(t), ref(t))
    assert np.array_equal(tab.deriv(t), ref(t, 1))
    assert np.array_equal(tab.deriv2(t), ref(t, 2))


def test_table_radius_rejects_loops():
    with pytest.raises(DomainError):
        TableRadius([0.0, 0.5, 0.4, 1.0], [1.0, 1.1, 1.05, 1.0])


def test_parse_radius_spec_forms():
    c = parse_radius_spec("constant 2.5")
    assert c(0.3) == pytest.approx(2.5)
    f = parse_radius_spec("fourier 1.0 3,0.05 5,0.01")
    assert f(0.0) == pytest.approx(1.06)
    ts = np.linspace(0, math.pi / 2, 9)
    tab = parse_radius_spec("table", points=[(t, 1 + 0.1 * t) for t in ts])
    assert tab(0.3) == pytest.approx(1.03, abs=1e-6)
    with pytest.raises(DomainError):
        parse_radius_spec("spline 1.0")
    with pytest.raises(DomainError):
        parse_radius_spec("table")   # missing points
    for bad in ("constant abc", "fourier x", "fourier 1.0 3,x"):
        with pytest.raises(DomainError):
            parse_radius_spec(bad)


# ---------------------------------------------------------------------------
# oracles: the earlier constant radius, GAMMA0 normals and diameter
# ---------------------------------------------------------------------------

class _ConstantRadiusOracle:
    def __init__(self, value):
        self.value = float(value)

    def __call__(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.value)

    def deriv(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def deriv2(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))


def _gamma0_normals_oracle(spec):
    pts = spec.gamma0_point(spec.gamma0_angles())
    wrap = spec.is_full_plane
    a = pts
    b = np.roll(pts, -1, axis=0) if wrap else pts[1:]
    if not wrap:
        a = pts[:-1]
    d = b - a
    lengths = np.linalg.norm(d, axis=1)
    return np.stack([d[:, 1], -d[:, 0]], axis=1) / lengths[:, None]


def _domain_diameter_oracle(spec):
    ts = spec.gamma0_angles(max(spec.sample_count, 512))
    pts = spec.gamma0_point(ts)
    if not spec.is_full_plane:
        pts = np.vstack([pts, [[0.0, 0.0]]])
    diff = pts[:, None, :] - pts[None, :, :]
    return float(np.sqrt((diff**2).sum(axis=2)).max())


TABLE_TS = np.linspace(0.0, math.pi / 2, 17)

ORACLE_DOMAINS = {
    "quarter": lambda: make_sector_domain(math.pi / 2, ConstantRadius(1.0), 256),
    "disk": lambda: make_sector_domain(2 * math.pi, ConstantRadius(1.0), 512),
    "half": lambda: make_sector_domain(math.pi, ConstantRadius(1.0), 256),
    "disk3": lambda: make_sector_domain(
        2 * math.pi, FourierRadius(1.0, [(3, 0.05)]), 512),
    "quarter4": lambda: make_sector_domain(
        math.pi / 2, FourierRadius(1.0, [(4, 0.05)]), 256),
    "disk8_0.6": lambda: make_sector_domain(
        2 * math.pi, FourierRadius(1.0, [(8, 0.6)]), 512),
    "beta0.1_offset": lambda: make_sector_domain(0.1, offset_disk_radius(0.3), 64),
    "table_quarter": lambda: make_sector_domain(
        math.pi / 2, TableRadius(TABLE_TS, 1.0 + 0.05 * np.cos(4 * TABLE_TS)), 256),
}


@pytest.mark.parametrize("name", ORACLE_DOMAINS)
def test_diameter_and_normals_match_oracles(name):
    spec = ORACLE_DOMAINS[name]()
    assert domain_diameter(spec) == _domain_diameter_oracle(spec)
    part = boundary_partition(spec)
    _, _, nrm = part.all_segments()
    n0 = len(part.gamma0[0])
    assert np.array_equal(nrm[:n0], _gamma0_normals_oracle(spec))
    assert np.array_equal(nrm[n0:], part.gamma1_normals)


@pytest.mark.parametrize("t", [0.3, np.linspace(-1.0, 7.0, 11),
                               np.arange(6.0).reshape(2, 3), [0, 1, 2]])
@pytest.mark.parametrize("value", [1.0, 2.5, 0.731])
def test_constant_radius_matches_oracle(value, t):
    got, want = ConstantRadius(value), _ConstantRadiusOracle(value)
    for method in ("__call__", "deriv", "deriv2"):
        a, b = getattr(got, method)(t), getattr(want, method)(t)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b), method


# ---------------------------------------------------------------------------
# boundary partition
# ---------------------------------------------------------------------------

def test_quarter_partition_legs_and_normals(quarter_spec):
    part = boundary_partition(quarter_spec)
    assert len(part.gamma1_segments) == 2
    np.testing.assert_allclose(part.gamma1_normals[0], [0, -1], atol=1e-14)
    np.testing.assert_allclose(part.gamma1_normals[1], [-1, 0], atol=1e-14)
    # legs run origin <-> graph endpoints
    np.testing.assert_allclose(part.gamma1_segments[0][1], [1, 0], atol=1e-14)
    np.testing.assert_allclose(part.gamma1_segments[1][0], [0, 1], atol=1e-14)
    assert domain_diameter(quarter_spec) == pytest.approx(math.sqrt(2), rel=1e-4)


def test_half_disk_partition(half_spec):
    part = boundary_partition(half_spec)
    assert len(part.gamma1_segments) == 2
    for nu in part.gamma1_normals:
        np.testing.assert_allclose(nu, [0, -1], atol=1e-12)


def test_gamma1_passes_through_origin(pert_quarter_spec):
    part = boundary_partition(pert_quarter_spec)
    for seg, nu in zip(part.gamma1_segments, part.gamma1_normals):
        for s in np.linspace(0, 1, 7):
            x = (1 - s) * seg[0] + s * seg[1]
            assert abs(x @ nu) <= 1e-10 * max(np.linalg.norm(x), 1e-30)


def test_partition_normals_unit_and_chord_error(pert_disk_spec):
    part = boundary_partition(pert_disk_spec)
    norms = np.linalg.norm(part.all_segments()[2], axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)
    # chord sagitta stays below (max r) (beta / samples)^2
    a, b = part.gamma0
    mid = 0.5 * (a + b)
    proj = pert_disk_spec.project_to_gamma0(mid)
    gap = np.linalg.norm(proj - mid, axis=1).max()
    bound = 1.05 * (2 * math.pi / pert_disk_spec.sample_count) ** 2
    assert gap <= bound


# ---------------------------------------------------------------------------
# normal span
# ---------------------------------------------------------------------------

def test_normal_span_ranks(quarter_spec, half_spec, disk_spec):
    kq = normal_span(boundary_partition(quarter_spec))
    assert kq.k == 2
    assert np.allclose(kq.rotation @ kq.rotation.T, np.eye(2), atol=1e-12)
    kh = normal_span(boundary_partition(half_spec))
    assert kh.k == 1
    assert abs(abs(kh.basis[0] @ np.array([0, 1])) - 1) < 1e-12
    kd = normal_span(boundary_partition(disk_spec))
    assert kd.k == 0 and np.allclose(kd.rotation, np.eye(2))


@settings(max_examples=20, deadline=None)
@given(phi=hst.floats(-math.pi, math.pi, allow_nan=False))
def test_normal_span_rank_rotation_invariant(phi):
    spec = make_sector_domain(math.pi / 2, ConstantRadius(1.0), 64)
    part = boundary_partition(spec)
    c, s = math.cos(phi), math.sin(phi)
    rotation = np.array([[c, -s], [s, c]])
    turned = replace(part, gamma1_normals=part.gamma1_normals @ rotation.T)
    assert normal_span(turned).k == normal_span(part).k


# ---------------------------------------------------------------------------
# the candidate radius
# ---------------------------------------------------------------------------

def test_serrin_radius_ball_sectors():
    assert serrin_radius(math.pi / 4, math.pi / 2) == pytest.approx(1.0)
    assert serrin_radius(math.pi, 2 * math.pi) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        serrin_radius(1.0, 0.0)


def test_serrin_radius_perturbed_disk_quadrature_oracle(pert_disk_spec):
    # independent oracle: adaptive quadrature of the polar area/length elements
    area, length = domain_area(pert_disk_spec), gamma0_length(pert_disk_spec)
    assert area == pytest.approx(PERT_DISK_AREA, rel=1e-12)
    assert length == pytest.approx(PERT_DISK_LEN, rel=1e-12)
    assert serrin_radius(area, length) == pytest.approx(PERT_DISK_R, rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(scale=hst.floats(0.1, 10.0), area=hst.floats(0.1, 5.0),
       length=hst.floats(0.1, 5.0))
def test_serrin_radius_homogeneous(scale, area, length):
    base = serrin_radius(area, length)
    scaled = serrin_radius(area * scale**2, length * scale)
    assert scaled == pytest.approx(scale * base, rel=1e-12)


# ---------------------------------------------------------------------------
# rho extremes
# ---------------------------------------------------------------------------

def rho_extremes(spec, z):
    dmin, dmax = segment_extremes(*boundary_partition(spec).gamma0, z)
    return dmax.max(), dmin.min()


def test_rho_extremes_sector_and_perturbed(quarter_spec, pert_disk_spec,
                                           shifted_half_spec):
    rho_e, rho_i = rho_extremes(quarter_spec, (0, 0))
    assert rho_e == pytest.approx(1.0, abs=1e-12)
    assert rho_i == pytest.approx(1.0, abs=1e-4)   # chord sagitta only
    # chord sagitta ~ (2 pi / samples)^2 / 8 limits the polyline minimum
    rho_e, rho_i = rho_extremes(pert_disk_spec, (0, 0))
    assert rho_e == pytest.approx(1.05, abs=1e-6)
    assert rho_i == pytest.approx(0.95, abs=2e-5)
    rho_e, rho_i = rho_extremes(shifted_half_spec, (0.3, 0))
    assert rho_e == pytest.approx(1.0, abs=1e-9)
    assert rho_i == pytest.approx(1.0, abs=1e-4)


def test_rho_gap_vanishes_for_dense_sector_sampling():
    spec = make_sector_domain(math.pi / 2, ConstantRadius(1.0), 8192)
    rho_e, rho_i = rho_extremes(spec, (0, 0))
    assert rho_e - rho_i <= 1e-8


# ---------------------------------------------------------------------------
# point-to-polyline distances
# ---------------------------------------------------------------------------

def _einsum_polyline_distance(points, seg_a, seg_b, chunk=4096):
    """Reference kernel: (chunk, segments, 2) temporaries contracted by einsum."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    seg_a = np.asarray(seg_a, dtype=float)
    seg_b = np.asarray(seg_b, dtype=float)
    d = seg_b - seg_a
    dd = np.einsum("ij,ij->i", d, d)
    dd_safe = np.where(dd > 0, dd, 1.0)
    out = np.empty(len(points))
    for lo in range(0, len(points), chunk):
        p = points[lo:lo + chunk]
        w = p[:, None, :] - seg_a[None, :, :]
        s = np.clip(np.einsum("pij,ij->pi", w, d) / dd_safe[None, :], 0.0, 1.0)
        diff = w - s[:, :, None] * d[None, :, :]
        out[lo:lo + chunk] = np.sqrt(np.einsum("pij,pij->pi", diff, diff).min(axis=1))
    return out


# 512 segments: the brute-force pass then takes _PAIR_BUDGET // 512 = 64 points
# per block
_BRUTE_BLOCK = _PAIR_BUDGET // 512


@pytest.mark.parametrize("n_points", [1, _BRUTE_BLOCK, 3 * _BRUTE_BLOCK + 5])
def test_polyline_distance_bit_identical_to_einsum_kernel(n_points):
    rng = np.random.default_rng(n_points)
    seg_a = rng.normal(size=(512, 2))
    seg_b = rng.normal(size=(512, 2))
    seg_b[3] = seg_a[3]                       # zero-length segment
    points = rng.normal(size=(n_points, 2))
    points[0] = seg_a[5]                      # exactly on segment endpoints
    if n_points > 1:
        points[1] = seg_b[7]
        points[-1] = seg_a[3]
    got = polyline_distance(points, seg_a, seg_b)
    assert np.array_equal(got, _einsum_polyline_distance(points, seg_a, seg_b))
    assert got[0] == 0.0


def test_polyline_distance_empty_input():
    seg = np.array([[0.0, 0.0], [1.0, 0.0]])
    out = polyline_distance(np.zeros((0, 2)), seg[:1], seg[1:])
    assert out.shape == (0,)


def _pair_shapes(monkeypatch):
    """Shape of every pair batch ``polyline_distance`` evaluates from now on."""
    shapes = []
    pair = geometry._pair

    def counting(*args):
        d2 = pair(*args)
        shapes.append(d2.shape)
        return d2

    monkeypatch.setattr(geometry, "_pair", counting)
    return shapes


def _pruned_input(case, scale):
    """4,109 points and 133 segments (neither a multiple of its block size),
    large enough for the pruned pass."""
    rng = np.random.default_rng(7)
    n, m = 4109, 133
    t = np.linspace(0.0, 2 * np.pi, m + 1)
    v = (1 + 0.05 * np.cos(3 * t))[:, None] * np.stack([np.cos(t), np.sin(t)], 1)
    seg_a, seg_b = v[:-1].copy(), v[1:].copy()
    seg_b[[5, 60]] = seg_a[[5, 60]]                   # zero-length segments
    points = rng.uniform(-1.1, 1.1, size=(n, 2))
    # a quarter exactly on segments, a quarter 1e-12 off them, and endpoints
    j, s = rng.integers(0, m, n // 2), rng.random((n // 2, 1))
    points[:n // 2] = seg_a[j] + s * (seg_b[j] - seg_a[j])
    points[n // 4:n // 2] += 1e-12 * rng.normal(size=(n // 2 - n // 4, 2))
    points[:m] = seg_a
    if case == "shuffled":
        order = rng.permutation(m)
        seg_a, seg_b = seg_a[order], seg_b[order]
    elif case == "far":
        # so far that every segment block stays a candidate
        points = 1e10 * rng.normal(size=(n, 2))
    return scale * points, scale * seg_a, scale * seg_b


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("case", ["polyline", "shuffled", "far"])
def test_pruned_polyline_distance_bit_identical_to_einsum_kernel(monkeypatch,
                                                                 case, scale):
    points, seg_a, seg_b = _pruned_input(case, scale)
    shapes = _pair_shapes(monkeypatch)
    got = polyline_distance(points, seg_a, seg_b)
    assert np.array_equal(got, _einsum_polyline_distance(points, seg_a, seg_b))
    assert any(len(shape) == 3 for shape in shapes)    # the pruned pass ran
    if case == "far":
        assert sum(math.prod(shape) for shape in shapes) >= len(points) * len(seg_a)
    else:
        assert np.all(got[:len(seg_a)] == 0.0)


@pytest.fixture(scope="module")
def disk3_quadrature():
    """The sweep's mu weight field input: the quadrature points of the unit
    disk's h = 0.025 mesh (105,000) and its 512 GAMMA0 segments."""
    spec = make_sector_domain(2 * math.pi, ConstantRadius(1.0), 512)
    points = triangulate(spec, 0.025).quadrature_points().reshape(-1, 2)
    return (points, *boundary_partition(spec).gamma0)


def test_pruned_polyline_distance_on_the_disk3_mesh(disk3_quadrature):
    got = polyline_distance(*disk3_quadrature)
    want = _einsum_polyline_distance(*disk3_quadrature, chunk=256)
    assert np.array_equal(got, want)


def test_polyline_distance_prunes_on_the_disk3_mesh(disk3_quadrature,
                                                    monkeypatch):
    points, seg_a, _ = disk3_quadrature
    assert (len(points), len(seg_a)) == (105_000, 512)
    shapes = _pair_shapes(monkeypatch)
    polyline_distance(*disk3_quadrature)
    evaluated = sum(math.prod(shape) for shape in shapes)
    # measured: 13.2 % of the 53.76M pairs
    assert 0 < evaluated <= 0.25 * len(points) * len(seg_a)


# ---------------------------------------------------------------------------
# interior / exterior sphere radii
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ORACLE_DOMAINS)
def test_interior_sphere_matches_every_sample_bisection(name):
    spec = ORACLE_DOMAINS[name]()
    assert interior_sphere_radius(spec) == oracles.interior_sphere_radius(spec)


def test_interior_sphere_bisects_only_candidate_samples(monkeypatch):
    # the poincare-quarter4 domain: 257 samples against 256 segments
    spec = ORACLE_DOMAINS["quarter4"]()
    shapes = _pair_shapes(monkeypatch)
    oracles.interior_sphere_radius(spec)
    every = sum(math.prod(shape) for shape in shapes)
    shapes.clear()
    interior_sphere_radius(spec)
    assert every == 41 * 257 * 256 == 2_697_472
    assert sum(math.prod(shape) for shape in shapes) == 447_488


def test_interior_sphere_quarter_disk(quarter_spec):
    res = interior_sphere_radius(quarter_spec)
    assert res.ok
    assert res.value == pytest.approx(1.0, abs=5e-3)


def test_interior_sphere_unit_disk(disk_spec):
    res = interior_sphere_radius(disk_spec)
    assert res.ok
    assert res.value == pytest.approx(1.0, abs=5e-3)


def test_interior_sphere_perturbed_disk_curvature_oracle(pert_disk_spec):
    # oracle: concave-side curvature radius bound 1/max kappa for polar graphs
    ts = np.linspace(0, 2 * math.pi, 20001)
    kap = polar_curvature(pert_disk_spec, ts)
    assert 1.0 / kap.max() == pytest.approx(PERT_DISK_RI, rel=1e-6)
    res = interior_sphere_radius(pert_disk_spec)
    assert res.ok
    assert res.value == pytest.approx(PERT_DISK_RI, rel=0.01)


def test_interior_sphere_flags_needle_domains():
    # a deep needle leaves no room for tangent balls at its tip
    ts = np.linspace(0, math.pi / 2, 41)
    rs = 1.0 - 0.98 * np.exp(-((ts - math.pi / 4) ** 2) / (2 * 0.02**2))
    spec = make_sector_domain(math.pi / 2, TableRadius(ts, rs), 512)
    res = interior_sphere_radius(spec)
    assert not res.ok
    assert res.value == 0.0


def test_polar_curvature_matches_finite_differences(pert_disk_spec):
    ts = np.linspace(0.1, 1.0, 7)
    r = pert_disk_spec.radius_fn
    h = 1e-5
    dr = (r(ts + h) - r(ts - h)) / (2 * h)
    d2r = (r(ts + h) - 2 * r(ts) + r(ts - h)) / h**2
    kap_fd = (r(ts) ** 2 + 2 * dr**2 - r(ts) * d2r) / (r(ts) ** 2 + dr**2) ** 1.5
    np.testing.assert_allclose(polar_curvature(pert_disk_spec, ts), kap_fd,
                               rtol=1e-5)

