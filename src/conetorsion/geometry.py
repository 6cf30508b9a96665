"""Planar convex cones, star-shaped sector domains and their boundary data.

A domain is the intersection of a cone (vertex at the origin, opening angle
``beta``) with a region bounded by the radial graph ``t -> r(t)``.  The curved
part of the boundary (the graph) is GAMMA0; the two straight legs on the cone
boundary are GAMMA1 (empty when ``beta = 2*pi``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
_FULL_PLANE_TOL = 1e-12
_SPAN_TOL = 1e-10         # relative singular-value cut of the GAMMA1 normals
_SPHERE_SAMPLES = 256     # GAMMA0 samples of interior_sphere_radius


class DomainError(ValueError):
    """Invalid domain description (angle range, radius sign, loops...)."""


# ---------------------------------------------------------------------------
# radius functions
# ---------------------------------------------------------------------------

class RadiusFunction:
    """Positive radius profile r(t) of the radial graph: a subclass gives r,
    r' and r'' in closed form as ``__call__``, ``deriv`` and ``deriv2``."""


class FourierRadius(RadiusFunction):
    """r(t) = a0 + sum_m a_m cos(m t)."""

    def __init__(self, a0: float, terms=()):
        self.a0 = float(a0)
        self.terms = [(int(m), float(a)) for m, a in terms]

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        r = np.full_like(t, self.a0)
        for m, a in self.terms:
            r = r + a * np.cos(m * t)
        return r

    def deriv(self, t):
        t = np.asarray(t, dtype=float)
        d = np.zeros_like(t)
        for m, a in self.terms:
            d = d - a * m * np.sin(m * t)
        return d

    def deriv2(self, t):
        t = np.asarray(t, dtype=float)
        d = np.zeros_like(t)
        for m, a in self.terms:
            d = d - a * m * m * np.cos(m * t)
        return d


class ConstantRadius(FourierRadius):
    """r(t) = value: a Fourier radius with no terms."""

    def __init__(self, value: float):
        super().__init__(value)


class TableRadius(RadiusFunction):
    """Cubic-spline interpolation of (t, r) samples."""

    def __init__(self, ts, rs):
        # imported here: scipy.interpolate costs most of the package import
        from scipy.interpolate import CubicSpline

        ts = np.asarray(ts, dtype=float)
        rs = np.asarray(rs, dtype=float)
        if ts.ndim != 1 or ts.size < 2 or ts.shape != rs.shape:
            raise DomainError("radius table needs matching 1-d t and r arrays")
        if np.any(np.diff(ts) <= 0):
            raise DomainError("radius table angles must be strictly increasing (no loops)")
        self._spline = CubicSpline(ts, rs)

    def __call__(self, t):
        return self._spline(np.asarray(t, dtype=float))

    def deriv(self, t):
        return self._spline(np.asarray(t, dtype=float), 1)

    def deriv2(self, t):
        return self._spline(np.asarray(t, dtype=float), 2)


class ScaledRadius(RadiusFunction):
    """r(t) = base(t) * (1 + eps * cos(mode * t)); perturbation families."""

    def __init__(self, base: RadiusFunction, mode: int, eps: float):
        self.base, self.mode, self.eps = base, int(mode), float(eps)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return self.base(t) * (1.0 + self.eps * np.cos(self.mode * t))

    def deriv(self, t):
        t = np.asarray(t, dtype=float)
        f = 1.0 + self.eps * np.cos(self.mode * t)
        df = -self.eps * self.mode * np.sin(self.mode * t)
        return self.base.deriv(t) * f + self.base(t) * df

    def deriv2(self, t):
        t = np.asarray(t, dtype=float)
        f = 1.0 + self.eps * np.cos(self.mode * t)
        df = -self.eps * self.mode * np.sin(self.mode * t)
        d2f = -self.eps * self.mode**2 * np.cos(self.mode * t)
        return (self.base.deriv2(t) * f + 2 * self.base.deriv(t) * df
                + self.base(t) * d2f)


class _OffsetDiskRadius(RadiusFunction):
    """r(t) = a cos t + s, s = sqrt(1 - a^2 sin^2 t): the unit circle
    centered at (a, 0) as a radial graph."""

    def __init__(self, a: float):
        self.a = a

    def _s(self, t):
        return np.sqrt(1.0 - (self.a * np.sin(t)) ** 2)

    def __call__(self, t):
        return self.a * np.cos(t) + self._s(t)

    def deriv(self, t):
        a = self.a
        return -a * np.sin(t) - a * a * np.sin(t) * np.cos(t) / self._s(t)

    def deriv2(self, t):
        a, s = self.a, self._s(t)
        return (-a * np.cos(t) - a**2 * np.cos(2 * t) / s
                - a**4 * (np.sin(t) * np.cos(t)) ** 2 / s**3)


def offset_disk_radius(a: float) -> RadiusFunction:
    """Radial graph of the unit circle centered at (a, 0), |a| < 1.

    The upper half (``beta = pi``) is the shifted half-disk
    B_1((a,0)) intersected with {y > 0}.
    """
    a = float(a)
    if not abs(a) < 1.0:
        raise DomainError("offset disk requires |a| < 1 so the origin is interior")
    return _OffsetDiskRadius(a)


def _number(word: str) -> float:
    try:
        return float(word)
    except ValueError as exc:
        raise DomainError(f"radius value {word!r} is not a number") from exc


def parse_radius_spec(text: str, points=None) -> RadiusFunction:
    """Parse the radius-function config syntax.

    ``constant c`` | ``fourier a0 m,a_m [m,a_m ...]`` | ``table`` (with
    ``points`` = iterable of (t, r) pairs, cubic-spline interpolated).
    """
    words = text.strip().split()
    if not words:
        raise DomainError("empty radius spec")
    kind = words[0].lower()
    if kind == "constant":
        if len(words) != 2:
            raise DomainError("constant radius spec needs exactly one value")
        return ConstantRadius(_number(words[1]))
    if kind == "fourier":
        if len(words) < 2:
            raise DomainError("fourier radius spec needs a0")
        a0 = _number(words[1])
        terms = []
        for w in words[2:]:
            try:
                m_s, a_s = w.split(",")
                terms.append((int(m_s), float(a_s)))
            except ValueError as exc:
                raise DomainError(f"bad fourier term {w!r}, expected m,a_m") from exc
        return FourierRadius(a0, terms)
    if kind == "table":
        if points is None:
            raise DomainError("table radius spec needs (t, r) points")
        pts = np.asarray(list(points), dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise DomainError("table points must be (t, r) pairs")
        return TableRadius(pts[:, 0], pts[:, 1])
    raise DomainError(f"unknown radius spec kind {kind!r}")


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DomainSpec:
    """The cone {(r cos t, r sin t) : 0 < t < beta, r > 0} (beta = 2*pi is all
    of R^2) cut by the radial graph bounding GAMMA0, with sampling resolution."""

    beta: float
    radius_fn: RadiusFunction
    sample_count: int

    def __post_init__(self):
        if not (0.0 < self.beta <= TWO_PI + _FULL_PLANE_TOL):
            raise DomainError(f"opening angle must lie in (0, 2*pi], got {self.beta}")

    @property
    def is_full_plane(self) -> bool:
        return abs(self.beta - TWO_PI) <= _FULL_PLANE_TOL

    @property
    def is_convex(self) -> bool:
        return self.beta <= math.pi + _FULL_PLANE_TOL or self.is_full_plane

    def gamma0_angles(self, n=None) -> np.ndarray:
        """Sample angles of the GAMMA0 polyline (n segments)."""
        n = self.sample_count if n is None else int(n)
        if self.is_full_plane:
            return np.linspace(0.0, TWO_PI, n + 1)[:-1]
        return np.linspace(0.0, self.beta, n + 1)

    def gamma0_point(self, t):
        t = np.asarray(t, dtype=float)
        r = self.radius_fn(t)
        return np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)

    def clamp_angle(self, t):
        """Map an atan2 angle into the parameter range of the graph."""
        t = np.asarray(np.mod(t, TWO_PI), dtype=float)
        if self.is_full_plane:
            return t
        return np.clip(t, 0.0, self.beta)

    def project_to_gamma0(self, points):
        """Radially project points onto the analytic graph."""
        points = np.asarray(points, dtype=float)
        t = self.clamp_angle(np.arctan2(points[..., 1], points[..., 0]))
        return self.gamma0_point(t)


def outward_normals(d) -> np.ndarray:
    """(n, 2) unit normals of the directions d (segment b - a, or a tangent),
    each turned by -90 degrees: outward when the interior lies on the left."""
    n = np.stack([d[:, 1], -d[:, 0]], axis=1)
    return n / np.linalg.norm(n, axis=1)[:, None]


@dataclass(frozen=True)
class BoundaryPartition:
    """GAMMA0 as (start, end) segment arrays plus the straight GAMMA1 legs."""

    gamma0: tuple[np.ndarray, np.ndarray]
    gamma1_segments: np.ndarray   # (k, 2, 2): [start, end] per leg, CCW order
    gamma1_normals: np.ndarray    # (k, 2)

    def all_segments(self):
        """(start, end, normal) arrays over GAMMA0 then GAMMA1; for distances."""
        a0, b0 = self.gamma0
        return (np.vstack([a0, self.gamma1_segments[:, 0]]),
                np.vstack([b0, self.gamma1_segments[:, 1]]),
                np.vstack([outward_normals(b0 - a0), self.gamma1_normals]))


@dataclass(frozen=True)
class SpanInfo:
    """Span of the GAMMA1 normals and a frame sending it to the leading axes."""

    k: int
    basis: np.ndarray     # (k, 2) orthonormal rows spanning the normal space
    rotation: np.ndarray  # (2, 2) orthogonal, rows: basis then its complement


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def make_sector_domain(beta: float, radius_fn, samples: int = 256) -> DomainSpec:
    """Validated sector domain: positive star-shaped radial graph over the cone.

    Raises DomainError for beta outside (0, 2*pi], a ``radius_fn`` that is
    not a RadiusFunction, non-positive radius, or a full-plane graph that
    does not close up.
    """
    spec = DomainSpec(float(beta), radius_fn, int(samples))
    if not isinstance(radius_fn, RadiusFunction):
        raise DomainError(f"radius_fn must be a RadiusFunction, not {radius_fn!r}")
    if spec.sample_count < 8:
        raise DomainError("need at least 8 boundary samples")
    ts = np.linspace(0.0, spec.beta, 4 * spec.sample_count + 1)
    r = np.asarray(radius_fn(ts), dtype=float)
    if not np.all(np.isfinite(r)):
        raise DomainError("radius function must be finite on [0, beta]")
    if np.min(r) <= 0.0:
        raise DomainError(f"radius function must be positive (min {np.min(r):g})")
    if spec.is_full_plane:
        scale = max(1.0, float(np.max(np.abs(r))))
        if abs(r[0] - r[-1]) > 1e-9 * scale:
            raise DomainError("full-plane radial graph must close: r(0) == r(2*pi)")
    return spec


def boundary_partition(spec: DomainSpec) -> BoundaryPartition:
    """GAMMA0 as a sampled polyline and GAMMA1 as the straight legs."""
    pts = spec.gamma0_point(spec.gamma0_angles())
    if spec.is_full_plane:
        gamma0 = pts, np.roll(pts, -1, axis=0)
        g1_segs = np.zeros((0, 2, 2))
        g1_norms = np.zeros((0, 2))
    else:
        gamma0 = pts[:-1], pts[1:]
        beta = spec.beta
        p_start = spec.gamma0_point(0.0)
        p_end = spec.gamma0_point(beta)
        origin = np.zeros(2)
        # CCW boundary: origin -> p_start, arc, p_end -> origin
        g1_segs = np.array([[origin, p_start], [p_end, origin]])
        g1_norms = np.array([
            [0.0, -1.0],
            [-math.sin(beta), math.cos(beta)],
        ])
    return BoundaryPartition(gamma0, g1_segs, g1_norms)


def normal_span(partition: BoundaryPartition) -> SpanInfo:
    """Rank and orthonormal basis of span{nu(x) : x in GAMMA1}."""
    normals = partition.gamma1_normals
    if len(normals) == 0:
        return SpanInfo(0, np.zeros((0, 2)), np.eye(2))
    _, s, vt = np.linalg.svd(np.asarray(normals, dtype=float))
    k = int(np.sum(s > _SPAN_TOL * s[0]))
    rotation = vt.copy()
    if np.linalg.det(rotation) < 0:
        rotation[-1] = -rotation[-1]
    return SpanInfo(k, rotation[:k], rotation)


def serrin_radius(area: float, gamma0_length: float) -> float:
    """Candidate ball radius N*|domain| / |GAMMA0|, N = 2."""
    if area <= 0 or gamma0_length <= 0:
        raise DomainError("area and GAMMA0 length must be positive")
    return 2 * area / gamma0_length


def segment_extremes(a, b, z):
    """(min, max) of |x - z| over segments [a_i, b_i]; closed forms per segment."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    z = np.asarray(z, dtype=float)
    d = b - a
    dd = np.einsum("ij,ij->i", d, d)
    w = z - a
    s = np.clip(np.einsum("ij,ij->i", w, d) / np.where(dd > 0, dd, 1.0), 0.0, 1.0)
    closest = a + s[:, None] * d
    dmin = np.linalg.norm(closest - z, axis=1)
    dend = np.maximum(np.linalg.norm(a - z, axis=1), np.linalg.norm(b - z, axis=1))
    return dmin, dend


# pairs per (points, segments) temporary of polyline_distance: 64 x 512
# doubles, 256 KiB, which stays in L2 cache
_PAIR_BUDGET = 1 << 15
# pruned path: points per block (in Morton order), consecutive segments per
# block, and the sizes below which the brute-force pass is faster (measured)
_POINT_BLOCK = 16
_SEGMENT_BLOCK = 8
_PRUNE_MIN_POINTS = 4096
_PRUNE_MIN_SEGMENTS = 64
# candidate slack: relative, and absolute per squared coordinate extent
_PRUNE_REL = 1e-9
_PRUNE_ABS = 4096 * np.finfo(float).eps


def _pair(px, py, ax, ay, dx, dy, dd_safe):
    """Squared distances from the points (px, py) to the segments a + s d,
    s in [0, 1], broadcast; ``dd_safe`` is |d|^2, or 1 where d = 0."""
    wx = px - ax
    wy = py - ay
    s = np.clip((wx * dx + wy * dy) / dd_safe, 0.0, 1.0)
    wx -= s * dx
    wy -= s * dy
    return wx * wx + wy * wy


def polyline_distance(points, seg_a, seg_b) -> np.ndarray:
    """Distance from each point to the nearest of the segments [a_i, b_i].

    Exact: the closest point on segment i is a_i + s d_i, d_i = b_i - a_i,
    with s clipped to [0, 1].  Every evaluated pair goes through ``_pair``,
    and the result is bit-identical to evaluating every pair.

    Fewer than ``_PRUNE_MIN_POINTS`` points or ``_PRUNE_MIN_SEGMENTS``
    segments take that brute-force pass.  Larger inputs are pruned.  The
    points are sorted in Morton order and cut into blocks of ``_POINT_BLOCK``;
    the segments are cut into runs of ``_SEGMENT_BLOCK`` with axis-aligned
    boxes.  For a point block, U is the largest over its points of the
    computed squared distance to the nearest segment of the segment block
    whose box is nearest the block's centre, and L_B is the box-to-box
    squared distance to segment block B.
    Only the blocks with L_B <= U (1 + 1e-9) + 4096 eps E^2 are evaluated,
    E being the coordinate extent of points and segments.

    Why the result is unchanged: let segment j, in block B, give a point's
    computed minimum D.  Then D <= U, because U bounds that point's computed
    minimum over the nearest block.  The exact squared distance from the
    point to segment j is at least the exact L_B, and at most D plus the
    rounding of the pair arithmetic (and of d = b - a), below 40 eps E^2,
    since every vector in it is shorter than 3E.  The computed L_B exceeds
    the exact one by a relative 3 eps at most.  So block B is evaluated, the
    minimum is taken over a superset of the pairs that attain it with the
    same arithmetic, and sqrt is monotone.  A relative slack alone would not
    do: a point 1e-4 from the boundary has U ~ 1e-8, while the rounding is
    about 1e-16 E^2.  Inputs whose slack 4096 eps E^2 is not a normal float
    (non-finite, overflowing or subnormal coordinates) take the brute-force
    pass.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    seg_a = np.asarray(seg_a, dtype=float)
    seg_b = np.asarray(seg_b, dtype=float)
    ax, ay = seg_a[:, 0], seg_a[:, 1]
    dx, dy = seg_b[:, 0] - ax, seg_b[:, 1] - ay
    dd = dx * dx + dy * dy
    seg = np.stack([ax, ay, dx, dy, np.where(dd > 0, dd, 1.0)])
    if len(points) >= _PRUNE_MIN_POINTS and len(seg_a) >= _PRUNE_MIN_SEGMENTS:
        lo = np.minimum(points.min(axis=0), np.minimum(seg_a.min(axis=0),
                                                       seg_b.min(axis=0)))
        hi = np.maximum(points.max(axis=0), np.maximum(seg_a.max(axis=0),
                                                       seg_b.max(axis=0)))
        extent = float((hi - lo).max())
        margin = _PRUNE_ABS * extent * extent
        if np.finfo(float).tiny <= margin < np.inf:
            return _pruned_distance(points, seg_a, seg_b, seg, lo, extent, margin)
    out = np.empty(len(points))
    block = max(1, _PAIR_BUDGET // max(1, len(seg_a)))
    for i in range(0, len(points), block):
        p = points[i:i + block]
        out[i:i + block] = np.sqrt(_pair(p[:, 0:1], p[:, 1:2], *seg).min(axis=1))
    return out


def _box_gap2(xmin, xmax, ymin, ymax, box) -> np.ndarray:
    """(len(xmin), len(box[0])) squared distances between the boxes
    [xmin, xmax] x [ymin, ymax] and the boxes in ``box``."""
    bx0, bx1, by0, by1 = box
    gx = np.maximum(np.maximum(bx0 - xmax[:, None], xmin[:, None] - bx1), 0.0)
    gy = np.maximum(np.maximum(by0 - ymax[:, None], ymin[:, None] - by1), 0.0)
    return gx * gx + gy * gy


def _morton_order(points, lo, extent) -> np.ndarray:
    """Permutation that sorts the points along a Z-order curve, 16 bits per axis."""
    code = np.zeros(len(points), dtype=np.uint32)
    for axis in (0, 1):
        v = ((points[:, axis] - lo[axis]) * (65535.0 / extent)).astype(np.uint32)
        for shift, mask in ((8, 0x00FF00FF), (4, 0x0F0F0F0F), (2, 0x33333333),
                            (1, 0x55555555)):
            v = (v | (v << shift)) & mask
        code |= v << axis
    return np.argsort(code)


def _pruned_distance(points, seg_a, seg_b, seg, lo, extent, margin) -> np.ndarray:
    """The pruned pass of ``polyline_distance``; ``seg`` stacks its
    (ax, ay, dx, dy, dd_safe) and ``margin`` is its absolute slack."""
    n, m = len(points), len(seg_a)
    nbp, nbs = -(-n // _POINT_BLOCK), -(-m // _SEGMENT_BLOCK)
    # pad both block sets with copies of their last member
    order = _morton_order(points, lo, extent)[
        np.minimum(np.arange(nbp * _POINT_BLOCK), n - 1)]
    pad = np.minimum(np.arange(nbs * _SEGMENT_BLOCK), m - 1)
    sb = seg[:, pad].reshape(5, nbs, _SEGMENT_BLOCK)
    ends = np.stack([seg_a[pad], seg_b[pad]], axis=1).reshape(nbs, -1, 2)
    box = (ends[..., 0].min(1), ends[..., 0].max(1),
           ends[..., 1].min(1), ends[..., 1].max(1))
    # candidate widths: powers of two below nbs, then nbs
    widths = np.unique(np.minimum(1 << np.arange(nbs.bit_length() + 1), nbs))
    group = max(1, _PAIR_BUDGET // max(nbs, _POINT_BLOCK * _SEGMENT_BLOCK))
    out = np.empty(n)
    for g in range(0, nbp, group):
        idx = order[g * _POINT_BLOCK:(g + group) * _POINT_BLOCK]
        px = points[idx, 0].reshape(-1, _POINT_BLOCK)
        py = points[idx, 1].reshape(-1, _POINT_BLOCK)
        xmin, xmax, ymin, ymax = px.min(1), px.max(1), py.min(1), py.max(1)
        cx, cy = 0.5 * (xmin + xmax), 0.5 * (ymin + ymax)
        near = _box_gap2(cx, cx, cy, cy, box).argmin(axis=1)
        # points innermost: loops over 16 points rather than 8 segments
        gbest = _pair(px[:, None], py[:, None], *sb[:, near, :, None]).min(axis=1)
        upper = gbest.max(axis=1) * (1.0 + _PRUNE_REL) + margin
        cand = ~(_box_gap2(xmin, xmax, ymin, ymax, box) > upper[:, None])
        cand[np.arange(len(near)), near] = False
        count = cand.sum(axis=1)
        ranked = np.argsort(~cand, axis=1, kind="stable")   # candidates first
        width = widths[np.searchsorted(widths, count)]
        for k in np.unique(width[count > 0]):
            rows = np.flatnonzero((width == k) & (count > 0))
            # pad each row's candidates with its first one
            blocks = np.where(np.arange(k) < count[rows, None],
                              ranked[rows, :k], ranked[rows, :1])
            step = max(1, _PAIR_BUDGET // (k * _POINT_BLOCK * _SEGMENT_BLOCK))
            for i in range(0, len(rows), step):
                r = rows[i:i + step]
                s = sb[:, blocks[i:i + step]].reshape(5, len(r), 1, -1)
                d2 = _pair(px[r, :, None], py[r, :, None], *s)
                gbest[r] = np.minimum(gbest[r], d2.min(axis=2))
        out[idx] = np.sqrt(gbest).ravel()
    return out


def polar_curvature(spec: DomainSpec, t) -> np.ndarray:
    """Signed curvature of the radial graph (positive: convex toward origin)."""
    r = np.asarray(spec.radius_fn(t), dtype=float)
    dr = np.asarray(spec.radius_fn.deriv(t), dtype=float)
    d2r = np.asarray(spec.radius_fn.deriv2(t), dtype=float)
    return (r**2 + 2 * dr**2 - r * d2r) / (r**2 + dr**2) ** 1.5


def exterior_sphere_radius(spec: DomainSpec) -> float:
    """Admissible exterior tangent-ball radius for a convex radial graph.

    For convex graphs every tangent ball avoids the domain, so the curvature
    bound 1/max kappa is admissible (and conservative).  Returns NaN when the
    graph is not convex.
    """
    ts = spec.gamma0_angles(max(spec.sample_count, 720))
    kappa = polar_curvature(spec, ts)
    if np.min(kappa) < 0:
        return float("nan")
    return float(1.0 / np.max(kappa))


@dataclass(frozen=True)
class InteriorSphere:
    """Sampled lower bound for the interior touching-ball radius."""

    value: float
    ok: bool


def _inside_closure(spec: DomainSpec, pts, tol: float) -> np.ndarray:
    pts = np.atleast_2d(pts)
    rad = np.linalg.norm(pts, axis=1)
    ang = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), TWO_PI)
    ok_r = rad <= np.asarray(spec.radius_fn(spec.clamp_angle(ang))) + tol
    if spec.is_full_plane:
        return ok_r
    in_cone = (ang <= spec.beta + tol) | (ang >= TWO_PI - tol) | (rad <= tol)
    return ok_r & in_cone


def interior_sphere_radius(spec: DomainSpec) -> InteriorSphere:
    """Largest rho such that balls tangent at GAMMA0 from inside stay legal.

    Per sampled boundary point the ball center must lie in the closed domain
    and the closed ball may meet GAMMA0 only at the tangency point (the cone
    legs do not constrain the ball).  Bisection per sample; the reported value
    is the minimum over samples, a lower bound up to sampling resolution.

    Each step bisects only the samples with lo <= min(hi).  A sample with
    lo above min(hi) ends above the final minimum, since every bracket only
    shrinks; the samples are independent, so the result is unchanged.
    """
    part = boundary_partition(spec)
    a0, b0 = part.gamma0
    ts = spec.gamma0_angles(_SPHERE_SAMPLES)
    pts = spec.gamma0_point(ts)
    # outward normal of the graph at the sample angles
    dr = np.asarray(spec.radius_fn.deriv(ts), dtype=float)
    r = np.asarray(spec.radius_fn(ts), dtype=float)
    nrm = outward_normals(np.stack([dr * np.cos(ts) - r * np.sin(ts),
                                    dr * np.sin(ts) + r * np.cos(ts)], axis=1))

    rho_hi = float(np.max(r))
    geom_tol = 2.0 * rho_hi * (spec.beta / len(a0)) ** 2 + 1e-12

    def admissible(idx: np.ndarray, rho: np.ndarray) -> np.ndarray:
        """Per sample i in idx: the ball of radius rho tangent at pts[i] is legal."""
        centers = pts[idx] - rho[:, None] * nrm[idx]
        inside = _inside_closure(spec, centers, geom_tol)
        dist = polyline_distance(centers, a0, b0)
        return inside & (dist >= rho - geom_tol)

    lo = np.full(len(pts), 0.0)
    hi = np.full(len(pts), rho_hi)
    if not np.all(admissible(np.arange(len(pts)), np.full(len(pts), 1e-3 * rho_hi))):
        return InteriorSphere(0.0, False)
    # per-sample bisection (vectorized over the samples that can set the minimum)
    for _ in range(40):
        idx = np.flatnonzero(lo <= hi.min())
        mid = 0.5 * (lo[idx] + hi[idx])
        good = admissible(idx, mid)
        lo[idx] = np.where(good, mid, lo[idx])
        hi[idx] = np.where(good, hi[idx], mid)
    return InteriorSphere(float(np.min(lo)), True)


# rows per block of domain_diameter: at most 64 x 513 doubles per temporary
_DIAMETER_ROWS = 64


def domain_diameter(spec: DomainSpec) -> float:
    """Largest distance between GAMMA0 samples and, on a cone, the vertex.

    The largest squared distance, then one sqrt: sqrt is monotone and
    correctly rounded, so this is the largest of the pairwise distances.
    """
    pts = spec.gamma0_point(spec.gamma0_angles(max(spec.sample_count, 512)))
    if not spec.is_full_plane:
        pts = np.vstack([pts, [[0.0, 0.0]]])
    x, y = pts[:, 0], pts[:, 1]
    best = []
    for i in range(0, len(pts), _DIAMETER_ROWS):
        # rows i.. against columns i..: every pair j > k at least once
        dx = x[i:i + _DIAMETER_ROWS, None] - x[i:]
        dy = y[i:i + _DIAMETER_ROWS, None] - y[i:]
        best.append((dx * dx + dy * dy).max())
    return math.sqrt(np.max(best))

