"""Geodesics of the statistical metric in affine chart coordinates.

A ray with a distinguished component carries affine coordinates
``t_i = z_i / z_k``; the metric in such a chart is assembled from the
Hermitian matrix

    h_ij = [(1 + |t|^2) delta_ij - conj(t_i) t_j] / (1 + |t|^2)^2,

whose real form acts on interleaved real coordinates ``(u_1, v_1, u_2, ...)``
with ``t_i = u_i + i v_i``.  At the chart origin the metric is the identity;
its pullback agrees with the finite-difference Hessian of half the squared
ray distance, which the tests use as the independent oracle.

The metric is Kaehler with potential ``log(1 + |t|^2)``, so its connection
has the closed form ``Gamma^i_jk = -(delta_ij conj(t_k) + delta_ik conj(t_j))
/ (1 + |t|^2)`` and the geodesic equation in a chart reads

    t'' = 2 (conj(t) . t') t' / (1 + |t|^2)

(Bengtsson & Zyczkowski, *Geometry of Quantum States*, ch. 4; Ashtekar &
Schilling, gr-qc/9706069).  A constant metric factor cancels from it.  One
fixed-step RK4 engine integrates it on the stacked complex state
``(t, t')`` of one point and re-charts to the largest homogeneous component
when a coordinate's modulus exceeds a threshold.  The finite-difference
Christoffel contraction survives only in the tests, as an independent
oracle for the connection.

The module also certifies that superposition spheres are totally geodesic:
a shooting method aims a full-chart geodesic at the second basis ray,
restricting the initial direction to the sphere's two-real-dimensional
tangent plane, and reports how far the integrated path strays from the
sphere and how its arclength compares with ``arccos |<a|b>|``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .projective import Ray, SpannedSphere, _gauge_fix, project

__all__ = [
    "RECHART_THRESHOLD",
    "ChartPoint",
    "MetricAtPoint",
    "GeodesicPath",
    "TotalGeodesyCertificate",
    "ray_to_chart",
    "chart_to_vector",
    "chart_to_ray",
    "fs_metric",
    "induced_sphere_metric",
    "lie_derivative_normal",
    "candidate_induced_coefficient",
    "candidate_lie_coefficient",
    "classify_induced_form",
    "classify_lie_form",
    "integrate_geodesic",
    "geodesic_between",
    "integrated_pair_distance",
    "integrated_pair_distances",
    "total_geodesy_certificate",
    "geodesic_rows",
]

#: A chart is abandoned once any coordinate modulus exceeds this.
RECHART_THRESHOLD = 10.0

#: Hysteresis factor: a re-chart must bring the max modulus below
#: RECHART_THRESHOLD / RECHART_HYSTERESIS, which the argmax rule guarantees.
RECHART_HYSTERESIS = 2.0


@dataclass(frozen=True, eq=False)
class ChartPoint:
    """Affine coordinates of a ray relative to a distinguished component.

    ``coords[j]`` is the ratio of homogeneous component ``j`` (skipping the
    base index) to the base component.
    """

    base_index: int
    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=np.complex128)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("chart coordinates must be a nonempty 1-d vector")
        if not np.all(np.isfinite(c)):
            raise ValueError("chart coordinates contain non-finite entries")
        if not 0 <= self.base_index <= c.size:
            raise ValueError(
                f"base_index {self.base_index} out of range for dimension {c.size + 1}"
            )
        object.__setattr__(self, "coords", c)

    @property
    def dim(self) -> int:
        """Ambient Hilbert-space dimension."""
        return self.coords.size + 1

    @property
    def reals(self) -> np.ndarray:
        """Interleaved real coordinates (u1, v1, u2, v2, ...)."""
        out = np.empty(2 * self.coords.size)
        out[0::2] = self.coords.real
        out[1::2] = self.coords.imag
        return out


def _reals_to_coords(x: np.ndarray) -> np.ndarray:
    return x[..., 0::2] + 1j * x[..., 1::2]


def ray_to_chart(ray: Ray, base_index: int | None = None) -> ChartPoint:
    """Chart coordinates of a ray; base defaults to the largest component."""
    rep = ray.rep
    if base_index is None:
        base_index = int(np.argmax(np.abs(rep)))
    zk = rep[base_index]
    if abs(zk) < 1e-13:
        raise ValueError(f"component {base_index} is (numerically) zero; pick another chart")
    t = np.delete(rep, base_index) / zk
    return ChartPoint(base_index=base_index, coords=t)


def _homogeneous(base: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Representatives of shape (n, m + 1) from chart rows of shape (n, m).

    Row ``i`` gets 1 in slot ``base[i]`` and ``coords[i]`` elsewhere.
    """
    n, m = coords.shape
    off_base = np.arange(m + 1) != base[:, None]
    z = np.ones((n, m + 1), dtype=np.complex128)
    z[off_base] = coords.ravel()
    return z


def chart_to_vector(point: ChartPoint) -> np.ndarray:
    """Homogeneous representative with 1 in the base slot (not normalized)."""
    return _homogeneous(np.array([point.base_index]), point.coords[None, :])[0]


def chart_to_ray(point: ChartPoint) -> Ray:
    return project(chart_to_vector(point))


# ---------------------------------------------------------------------------
# Metric assembly.

def _metric_real_batch(x: np.ndarray, metric_factor: float = 1.0) -> np.ndarray:
    """Metric matrices at a batch of real coordinate points.

    ``x`` has shape (..., 2m); the result has shape (..., 2m, 2m) acting on
    interleaved (u, v) displacements.
    """
    t = _reals_to_coords(x)
    m = t.shape[-1]
    s = 1.0 + np.sum((t.conj() * t).real, axis=-1)
    eye = np.eye(m)
    h = (
        s[..., None, None] * eye - t.conj()[..., :, None] * t[..., None, :]
    ) / (s**2)[..., None, None]
    a, b = h.real, h.imag
    g = np.empty(x.shape[:-1] + (2 * m, 2 * m))
    g[..., 0::2, 0::2] = a
    g[..., 1::2, 1::2] = a
    g[..., 0::2, 1::2] = b
    g[..., 1::2, 0::2] = -b
    return metric_factor * g


@dataclass(frozen=True, eq=False)
class MetricAtPoint:
    """Validated metric matrix at a chart point (symmetric positive definite)."""

    point: ChartPoint
    g: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        n = 2 * self.point.coords.size
        if g.shape != (n, n):
            raise ValueError(f"metric must be {n}x{n}, got {g.shape}")
        if float(np.max(np.abs(g - g.T))) > 1e-12:
            raise ValueError("metric matrix is not symmetric")
        if float(np.linalg.eigvalsh(g)[0]) <= 0.0:
            raise ValueError("metric matrix is not positive definite")
        object.__setattr__(self, "g", g)


def fs_metric(point: ChartPoint, metric_factor: float = 1.0) -> MetricAtPoint:
    """Statistical metric at a chart point (``metric_factor`` rescales it).

    The factor-1 normalization is the one whose geodesic distance is
    ``arccos |<a|b>|``; factor 2 is the observable normalization, which
    multiplies all lengths by sqrt(2) and leaves geodesics unchanged.
    """
    if metric_factor <= 0.0:
        raise ValueError("metric_factor must be positive")
    g = _metric_real_batch(point.reals, metric_factor)
    return MetricAtPoint(point=point, g=g)


def _induced_block(x: np.ndarray) -> np.ndarray:
    """(u1, v1) block of the chart metric at interleaved real coordinates."""
    return _metric_real_batch(x)[0:2, 0:2]


def induced_sphere_metric(point: ChartPoint) -> MetricAtPoint:
    """Metric induced on the ``t2 = 0`` slice of a two-coordinate chart.

    The slice is a superposition sphere; its metric is the (u1, v1) block
    of the chart metric, returned as a metric on the slice's own
    one-coordinate chart.  Points off the slice are rejected - the slice is
    where the embedded-sphere geometry lives; the off-slice block is only
    meaningful inside the finite differences of
    :func:`lie_derivative_normal`.
    """
    if point.coords.size != 2:
        raise ValueError("expected a two-coordinate chart point")
    if abs(point.coords[1]) > 1e-12:
        raise ValueError(
            f"point is off the slice: |t2| = {abs(point.coords[1]):.3e} > 1e-12"
        )
    slice_point = ChartPoint(base_index=0, coords=point.coords[:1].copy())
    return MetricAtPoint(point=slice_point, g=_induced_block(point.reals))


def lie_derivative_normal(point: ChartPoint, normal: str, eps: float = 1e-4) -> np.ndarray:
    """Finite-difference Lie derivative of the induced block along a normal.

    ``normal`` is ``"u2"`` or ``"v2"``: the constant coordinate vector field
    of the second chart coordinate's real or imaginary part.  For such a
    field the Lie derivative of the induced-block tensor is the plain
    central difference of the block's components.  It vanishes on the
    ``t2 = 0`` slice - that is the geometric content certified here - and is
    generically nonzero off it.
    """
    if point.coords.size < 2:
        raise ValueError("need at least two chart coordinates")
    if normal not in ("u2", "v2"):
        raise ValueError(f"normal must be 'u2' or 'v2', got {normal!r}")
    idx = 2 if normal == "u2" else 3
    xp = point.reals
    xm = xp.copy()
    xp = xp.copy()
    xp[idx] += eps
    xm[idx] -= eps
    return (_induced_block(xp) - _induced_block(xm)) / (2.0 * eps)


def candidate_induced_coefficient(u1: float, v1: float, u2: float, v2: float,
                              power: int) -> float:
    """Candidate closed form for the induced-block coefficient.

    ``(1 + u2^2 + v2^2) / (1 + u1^2 + v1^2 + u2^2 + v2^2)**power`` - both
    denominator powers are plausible a priori (the homogeneous line element
    suggests the square); :func:`classify_induced_form` grades them against
    the actual chart metric.
    """
    s = 1.0 + u1 * u1 + v1 * v1 + u2 * u2 + v2 * v2
    return (1.0 + u2 * u2 + v2 * v2) / s**power


def candidate_lie_coefficient(u1: float, v1: float, u2: float, v2: float,
                          normal: str, power: int) -> float:
    """Candidate closed form ``2 n (1 + u1^2 + v1^2) / (1 + s)**power``.

    ``n`` is the off-slice normal coordinate (u2 or v2).  Like the induced
    coefficient, the denominator power is the ambiguous part; the
    finite-difference computation is the ground truth against which
    :func:`classify_lie_form` grades both candidates.
    """
    n = u2 if normal == "u2" else v2
    s = 1.0 + u1 * u1 + v1 * v1 + u2 * u2 + v2 * v2
    return 2.0 * n * (1.0 + u1 * u1 + v1 * v1) / s**power


def _grid_points(values, u2: float, v2: float) -> list[ChartPoint]:
    pts = []
    for u1 in values:
        for v1 in values:
            pts.append(ChartPoint(base_index=0,
                                  coords=np.array([u1 + 1j * v1, u2 + 1j * v2])))
    return pts


def classify_induced_form(samples=None) -> dict:
    """Grade the candidate induced-metric closed forms against the metric.

    Compares the (u1, v1)-block coefficient from the chart metric with the
    two denominator powers of :func:`candidate_induced_coefficient` over a grid
    of on- and off-slice points.  Returns the max relative errors and a
    verdict: ``"power2"`` here (the squared denominator reproduces the
    metric exactly; the first power does not).
    """
    if samples is None:
        samples = []
        for u2, v2 in [(0.0, 0.0), (0.0, 0.1), (0.3, -0.2), (0.0, 0.5)]:
            samples += _grid_points([-0.8, -0.3, 0.0, 0.4, 0.9], u2, v2)
    errs = {1: 0.0, 2: 0.0}
    for pt in samples:
        truth = _induced_block(pt.reals)[0, 0]
        u1, v1 = pt.coords[0].real, pt.coords[0].imag
        u2, v2 = pt.coords[1].real, pt.coords[1].imag
        for p in (1, 2):
            cand = candidate_induced_coefficient(u1, v1, u2, v2, p)
            errs[p] = max(errs[p], abs(cand - truth) / max(abs(truth), 1e-30))
    verdict = "neither"
    if errs[2] < 1e-10:
        verdict = "power2"
    elif errs[1] < 1e-10:
        verdict = "power1"
    return {"power1_max_rel": errs[1], "power2_max_rel": errs[2], "verdict": verdict}


def classify_lie_form(normal: str = "v2", samples=None, eps: float = 1e-4) -> dict:
    """Grade the candidate Lie-derivative closed forms against the FD oracle.

    The comparison is on magnitudes at off-slice points.  Neither power
    reproduces the finite-difference values everywhere (the squared
    denominator matches exactly on the u1 = v1 = 0 axis, the first power
    nowhere), so the expected verdict is ``"neither"``, with the on-axis
    agreement reported separately.
    """
    if samples is None:
        samples = []
        for off in (0.05, 0.1, 0.25):
            u2, v2 = (off, 0.0) if normal == "u2" else (0.0, off)
            samples += _grid_points([-0.7, -0.2, 0.0, 0.5], u2, v2)
    errs = {1: 0.0, 2: 0.0}
    on_axis_err2 = 0.0
    for pt in samples:
        fd = lie_derivative_normal(pt, normal, eps)[0, 0]
        u1, v1 = pt.coords[0].real, pt.coords[0].imag
        u2, v2 = pt.coords[1].real, pt.coords[1].imag
        scale = max(abs(fd), 1e-12)
        for p in (1, 2):
            cand = candidate_lie_coefficient(u1, v1, u2, v2, normal, p)
            rel = abs(abs(cand) - abs(fd)) / scale
            errs[p] = max(errs[p], rel)
            if p == 2 and abs(u1) < 1e-14 and abs(v1) < 1e-14:
                on_axis_err2 = max(on_axis_err2, rel)
    verdict = "neither"
    if errs[2] < 1e-3:
        verdict = "power2"
    elif errs[1] < 1e-3:
        verdict = "power1"
    return {
        "power1_max_rel": errs[1],
        "power2_max_rel": errs[2],
        "on_axis_power2_max_rel": on_axis_err2,
        "verdict": verdict,
    }


# ---------------------------------------------------------------------------
# Geodesic integration.

def _speed2(t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Squared speed ``(s |w|^2 - |conj(t).w|^2) / s^2``, ``s = 1 + |t|^2``, per row."""
    s = 1.0 + np.sum(np.abs(t) ** 2, axis=-1)
    tw = np.sum(t.conj() * w, axis=-1)
    return (s * np.sum(np.abs(w) ** 2, axis=-1) - np.abs(tw) ** 2) / s**2


def _acceleration(t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Closed-form geodesic acceleration ``2 (conj(t).w) w / (1 + |t|^2)``.

    ``t`` and ``w`` are the chart coordinates and velocity of one point,
    shape (m,); the metric factor cancels from the connection.
    """
    tc = t.conj()
    return (2.0 * (tc * w).sum() / (1.0 + (tc * t).real.sum())) * w


def _rk4_step(y: np.ndarray, h: float) -> np.ndarray:
    """One RK4 step of the stacked state ``y = (t, t')``, shape (2m,)."""
    m = y.size // 2

    def f(y):
        return np.concatenate((y[m:], _acceleration(y[:m], y[m:])))

    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _rechart(base: int, y: np.ndarray, threshold: float):
    """Switch the stacked state ``y = (t, t')`` to its largest component's chart.

    Only a state with a coordinate modulus above ``threshold`` switches.  The
    new base is the argmax, which puts every coordinate modulus at or below
    one - comfortably inside ``threshold / RECHART_HYSTERESIS`` - so
    switching cannot thrash.  For one coordinate this is the flip
    ``t -> 1/t``.  Returns ``(base, y)``; the input is not modified.
    """
    m = y.size // 2
    if not np.abs(y[:m]).max() > threshold:
        return base, y
    z, zdot = np.insert(y[:m], base, 1.0), np.insert(y[m:], base, 0.0)
    k = int(np.argmax(np.abs(z)))
    # one-element slices, not scalars: a complex scalar divisor rounds differently
    zl, zldot = z[k:k + 1], zdot[k:k + 1]
    zk, zkdot = np.delete(z, k), np.delete(zdot, k)
    return k, np.concatenate((zk / zl, (zkdot * zl - zk * zldot) / zl**2))


def _march(base: int, t, w, length: float, dt: float, threshold: float):
    """Integrate the geodesic equation from one chart point.

    ``base`` is the chart base index and ``t``, ``w`` (m,) the chart
    coordinates and velocity.  Each RK4 step of ``dt`` (the last one
    shortened to land on ``length``) is followed by :func:`_rechart`.
    Yields ``(arclength, base, t, w)`` at the start and after every step.
    """
    m = t.size
    s, y = 0.0, np.concatenate((t, w))
    yield s, base, t, w
    while s < length - 1e-15:
        h = min(dt, length - s)
        s += h
        base, y = _rechart(base, _rk4_step(y, h), threshold)
        yield s, base, y[:m], y[m:]


def _closest_approach(arcl: np.ndarray, ov: np.ndarray):
    """Closest approach of a path sampled at arclengths ``arcl`` to B targets.

    ``ov`` (n, B) holds ``|<target|psi>|``; the squared ray distance is fitted
    by a parabola through its smallest sample and both neighbours.  Returns,
    per target, the index of that sample and the fitted arclength.
    """
    ov = np.clip(ov, 0.0, 1.0)
    dist2 = np.arctan2(np.sqrt(1.0 - ov**2), ov) ** 2
    kmin = np.clip(np.argmin(dist2, axis=0), 1, len(arcl) - 2)
    cols = np.arange(dist2.shape[1])
    ym, y0, yp = dist2[kmin - 1, cols], dist2[kmin, cols], dist2[kmin + 1, cols]
    denom = ym - 2.0 * y0 + yp
    offset = 0.5 * (ym - yp) / np.where(np.abs(denom) > 1e-300, denom, np.inf)
    return kmin, arcl[kmin] + offset * (arcl[1] - arcl[0])


@dataclass(frozen=True)
class GeodesicPath:
    """Sampled geodesic: (arclength, chart point) pairs at every step."""

    samples: list[tuple[float, ChartPoint]]
    total_length: float
    max_speed_drift: float = 0.0
    phase_degenerate: bool = False

    @property
    def final(self) -> ChartPoint:
        return self.samples[-1][1]

    def rays(self) -> list[Ray]:
        return [chart_to_ray(p) for _, p in self.samples]


def integrate_geodesic(start: ChartPoint, velocity, length: float, dt: float,
                       metric_factor: float = 1.0,
                       rechart_threshold: float = RECHART_THRESHOLD) -> GeodesicPath:
    """Integrate the geodesic equation from a chart point.

    Parameters
    ----------
    start : ChartPoint
        Initial point.
    velocity : array_like
        Initial velocity in interleaved real chart coordinates; it is
        normalized to unit metric speed, so the curve parameter is
        arclength in the chosen ``metric_factor`` normalization.
    length, dt : float
        Total arclength and step; the last step is shortened to land on
        ``length`` exactly.
    rechart_threshold : float
        Coordinate modulus beyond which the integrator re-charts to the
        largest homogeneous component.  Endpoints are chart-independent to
        integration accuracy; lowering the threshold only forces the switch
        earlier.

    Returns
    -------
    GeodesicPath
        Samples at every step; ``max_speed_drift`` records how far the
        metric speed wandered from one (a diagnostic of step size).
    """
    if dt <= 0.0 or length < 0.0:
        raise ValueError("dt must be positive and length nonnegative")
    v = np.asarray(velocity, dtype=float)
    if v.shape != (2 * start.coords.size,):
        raise ValueError(
            f"velocity must have {2 * start.coords.size} real components, got {v.shape}"
        )
    w0 = _reals_to_coords(v)
    speed = math.sqrt(metric_factor * float(_speed2(start.coords, w0)))
    if speed < 1e-14:
        raise ValueError("velocity must be nonzero")

    arcl, bases, ts, ws = zip(*_march(start.base_index, start.coords, w0 / speed,
                                      length, dt, rechart_threshold))
    ts, ws = np.array(ts), np.array(ws)
    speeds = np.sqrt(metric_factor * _speed2(ts[1:], ws[1:]))
    samples = [(0.0, start)] + [(s, ChartPoint(base_index=k, coords=t))
                                for s, k, t in zip(arcl[1:], bases[1:], ts[1:])]
    return GeodesicPath(samples=samples, total_length=arcl[-1],
                        max_speed_drift=float(np.max(np.abs(speeds - 1.0), initial=0.0)))


def _aligned_frame(a: Ray, b: Ray):
    """Orthonormal pair (e0, e1) with b = cos(d) e0 + sin(d) e1, plus (cos, sin).

    ``e1`` is phase-aligned so b's frame coordinates are real nonnegative;
    for orthogonal rays the alignment is a pure convention (flagged by the
    caller via the returned ``degenerate`` boolean).
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    ov = complex(np.vdot(a.rep, b.rep))
    c = abs(ov)
    if c >= 1.0 - 1e-14:
        raise ValueError("rays coincide; the connecting geodesic is trivial")
    degenerate = c < 1e-14
    btil = b.rep if degenerate else b.rep * (ov.conjugate() / c)
    perp = btil - c * a.rep
    s_norm = float(np.linalg.norm(perp))
    e1 = perp / s_norm
    return a.rep, e1, c, s_norm, degenerate


def geodesic_between(a: Ray, b: Ray, num_samples: int = 65) -> GeodesicPath:
    """The minimal geodesic from ``a`` to ``b`` as an explicit great circle.

    Built in the plane spanned by the two rays with the second representative
    phase-aligned against the first; for orthogonal endpoints the alignment
    is undetermined and the gauge-fixed representative of ``b`` is used
    as-is, with ``phase_degenerate`` set on the result.
    """
    e0, e1, c, s, degenerate = _aligned_frame(a, b)
    d = math.atan2(s, c)
    samples = []
    for k in range(num_samples):
        sk = d * k / (num_samples - 1)
        xi = math.cos(sk) * e0 + math.sin(sk) * e1
        samples.append((sk, ray_to_chart(project(xi))))
    return GeodesicPath(samples=samples, total_length=d, phase_degenerate=degenerate)


# ---------------------------------------------------------------------------
# Integrated distances on the superposition sphere.

def integrated_pair_distances(pairs, dt: float = 2e-3) -> np.ndarray:
    """Distance between ray pairs measured by geodesic integration.

    For each pair the geodesic is integrated in the chart of the
    superposition sphere the pair spans, starting at the first ray and aimed
    at the second; the returned value is the arclength at the closest
    approach to the second ray, extracted by a parabolic fit of the squared
    ray distance around its minimum.  No arccos of the overlap enters the
    measurement; comparing ``cos**2`` of the result with ``|<a|b>|**2`` is
    therefore a genuine check, not a tautology.

    In the frame ``(e0, e1)`` of :func:`_aligned_frame` every pair's geodesic
    is the same great circle ``cos(s) e0 + sin(s) e1``; only the target
    ``cos_d e0 + sin_d e1`` differs.  So one integration serves all pairs.
    """
    frames = [_aligned_frame(a, b) for a, b in pairs]
    cos_d = np.array([f[2] for f in frames])
    sin_d = np.array([f[3] for f in frames])
    # t = 0 is the first ray, unit speed (the metric is I there) aims at the
    # second.  RK4's chart error grows with |t|: re-charting at |t| > 2, not
    # RECHART_THRESHOLD, holds the acceptance sweep's worst pair at 2e-11, not 6e-10.
    arcl, bases, ts, _ = zip(*_march(0, np.zeros(1, dtype=np.complex128),
                                     np.ones(1, dtype=np.complex128),
                                     math.pi / 2.0 + 0.25, dt, 2.0))
    z = _homogeneous(np.array(bases), np.array(ts))
    ov = np.abs(cos_d * z[:, :1] + sin_d * z[:, 1:])
    ov /= np.linalg.norm(z, axis=1, keepdims=True)
    return _closest_approach(np.array(arcl), ov)[1]


def integrated_pair_distance(a: Ray, b: Ray, dt: float = 2e-3) -> float:
    """Single-pair convenience wrapper over :func:`integrated_pair_distances`."""
    return float(integrated_pair_distances([(a, b)], dt)[0])


# ---------------------------------------------------------------------------
# Totally-geodesic certification.

@dataclass(frozen=True)
class TotalGeodesyCertificate:
    """Evidence that a superposition sphere is totally geodesic.

    A full-chart geodesic aimed (by shooting) from one basis ray at the
    other: ``max_offslice_residual`` is the largest off-sphere residual
    along the path, ``length_match`` the difference between the integrated
    arrival arclength and ``arccos |<a|b>|``, ``arrival_miss`` the
    closest-approach distance to the target, ``iterations`` the number of
    geodesics integrated.
    """

    ambient_dim: int
    aim_angle: float
    target_length: float
    integrated_length: float
    length_match: float
    max_offslice_residual: float
    arrival_miss: float
    iterations: int
    converged: bool


def _sphere_membership_rows(z: np.ndarray, sphere: SpannedSphere) -> np.ndarray:
    """``sphere_membership(project(row), sphere)`` for every nonzero row of ``z``."""
    r = _gauge_fix(z)
    w0 = r @ sphere.rep0.conj()
    w1 = r @ sphere.rep1.conj()
    residual = r - w0[:, None] * sphere.rep0 - w1[:, None] * sphere.rep1
    return np.linalg.norm(residual, axis=1)


def _shoot(a_chart: ChartPoint, e0, e1, cos_d, sin_d, chi, length, dt, sphere):
    """Integrate one aimed geodesic; return signed miss and arrival data.

    The arrival miss is assembled from the transverse in-sphere component
    ``Im(beta conj(alpha))`` and the off-sphere membership residual, not
    from the overlap magnitude with the target: the magnitude route cannot
    resolve distances below sqrt(machine eps) because ``1 - |<b|psi>|^2``
    cancels, while the transverse product is exact to rounding.  The
    arclength of closest approach still comes from a parabolic fit of the
    squared distance, whose *position* is insensitive to that floor.
    """
    a_rep = e0
    w = np.exp(1j * chi) * e1
    k = a_chart.base_index
    keep = np.arange(a_chart.dim) != k
    t0 = a_chart.coords
    w0 = (w[keep] * a_rep[k] - a_rep[keep] * w[k]) / a_rep[k] ** 2
    speed = math.sqrt(float(_speed2(t0, w0)))  # unit speed, as integrate_geodesic
    arcl, bases, ts, _ = zip(*_march(k, t0, w0 / speed, length, dt, RECHART_THRESHOLD))
    arcl = np.array(arcl)
    z = _homogeneous(np.array(bases), np.array(ts))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    alphas = z @ e0.conj()
    betas = z @ e1.conj()
    membership = _sphere_membership_rows(z, sphere)
    kmin, s_star = _closest_approach(arcl, np.abs(cos_d * alphas + sin_d * betas)[:, None])
    kmin = int(kmin[0])
    in_sphere = float(np.abs(alphas[kmin]) ** 2 + np.abs(betas[kmin]) ** 2)
    signed = float((betas[kmin] * np.conj(alphas[kmin])).imag) / in_sphere
    arrival_miss = math.hypot(signed, membership[kmin])
    member_max = float(np.max(membership[: kmin + 2]))
    return signed, abs(arrival_miss), float(s_star[0]), member_max


#: Relative root tolerance of Brent's method: scipy's ``brentq`` default.
_BRENT_RTOL = 4.0 * np.finfo(float).eps


def _brent_root(f, a: float, b: float, xtol: float, maxiter: int) -> tuple[float, bool]:
    """Root of ``f`` bracketed by ``[a, b]`` by Brent's method: ``(root, converged)``.

    A line-for-line port of the loop of scipy's ``brentq.c`` (Brent 1973,
    *Algorithms for Minimization Without Derivatives*, ch. 4), so it calls
    ``f`` at the same points and returns the same bits, with the rules of
    scipy's ``brentq`` wrapper: relative tolerance ``4 eps``; a NaN value
    or a bracket whose ends have the same sign raises ``ValueError``; an
    end where ``f`` is exactly 0 is returned at once; ``converged`` is
    False only when ``maxiter`` iterations run out, with the last point
    evaluated as the root.
    """
    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = a, b
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0:
        return xpre, True
    if fcur == 0:
        return xcur, True
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur, True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    return xcur, False


def total_geodesy_certificate(a: Ray, b: Ray, ambient_dim: int | None = None,
                              dt: float = 5e-3, arrival_tol: float = 1e-8,
                              max_iterations: int = 200) -> TotalGeodesyCertificate:
    """Certify by shooting that the sphere spanned by two rays is geodesic.

    The geodesic is integrated with the full chart metric of the ambient
    projective space - nothing constrains it to the sphere - with the
    initial direction restricted to the sphere's tangent plane at ``a``,
    parametrized by one angle.  A bracketing root search on the signed
    transverse miss aims the path at ``b`` to ``arrival_tol``: Brent's method
    (Brent 1973, ch. 4) as :func:`_brent_root` ports it from scipy's
    ``brentq.c``, bit for bit, so scipy is not imported at run time;
    non-convergence within ``max_iterations`` integrations is reported in
    the certificate rather than raised.  The certificate reads the shot
    Brent already made at its root; no aim angle is integrated twice.

    ``ambient_dim``, when given, is cross-checked against the rays.
    """
    if ambient_dim is not None and ambient_dim != a.dim:
        raise ValueError(f"ambient_dim {ambient_dim} does not match rays of dim {a.dim}")
    e0, e1, cos_d, sin_d, degenerate = _aligned_frame(a, b)
    target = math.atan2(sin_d, cos_d)
    if target < 1e-3:
        raise ValueError("rays are too close for a meaningful certificate")
    sphere = SpannedSphere(rep0=e0, rep1=e1)
    a_chart = ray_to_chart(a)
    length = min(target + 0.15, math.pi / 2.0 + 0.2)
    shots = {}

    def shoot(chi):
        if chi not in shots:
            shots[chi] = _shoot(a_chart, e0, e1, cos_d, sin_d, chi, length, dt, sphere)
        return shots[chi]

    converged = True
    if degenerate or target > math.pi / 2.0 - 1e-6:
        # orthogonal endpoints: b is the antipode, reached at every aim
        # angle, so the transverse miss has no sign change to bracket
        chi_star = 0.0
    else:
        try:
            chi_star, converged = _brent_root(lambda chi: shoot(chi)[0], -0.6, 0.6,
                                              xtol=1e-12, maxiter=max_iterations)
        except ValueError:
            # no sign change in the bracket, or a NaN miss: report the midpoint aim
            chi_star = 0.0
            converged = False
    _, miss, s_star, member_max = shoot(chi_star)
    evals = len(shots)
    return TotalGeodesyCertificate(
        ambient_dim=a.dim,
        aim_angle=float(chi_star),
        target_length=target,
        integrated_length=s_star,
        length_match=abs(s_star - target),
        max_offslice_residual=member_max,
        arrival_miss=miss,
        iterations=evals,
        converged=converged and miss <= arrival_tol and evals <= max_iterations + 1,
    )


def geodesic_rows(path: GeodesicPath) -> tuple[list[str], list[list[float]]]:
    """Flatten a path to CSV-ready header and rows.

    Columns: arclength, chart base index, then interleaved real coordinates.
    """
    m = path.samples[0][1].coords.size
    header = ["arclength", "base_index"]
    for i in range(m):
        header += [f"u{i + 1}", f"v{i + 1}"]
    rows = []
    for s, pt in path.samples:
        row = [float(s), float(pt.base_index)]
        row.extend(pt.reals.tolist())
        rows.append(row)
    return header, rows
