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
fixed-step Dormand-Prince 8(5,3) engine (Hairer, Norsett & Wanner, *Solving
Ordinary Differential Equations I*, sec. II.5) integrates it on the stacked
complex state ``(t, t')`` of one point, and after every step re-charts to
the largest homogeneous component once a coordinate's modulus exceeds
``RECHART_THRESHOLD`` = 1, so every step starts in the chart whose
hyperplane at infinity is farthest away.  The chart error grows with |t|:
at the default step 0.05, re-charting at 1 rather than 2 takes the worst
pair-distance residual from 3.9e-12 to 4.6e-14 and the worst certificate
length match from 1.5e-11 to 2.5e-13, and it keeps a 0.5 step from landing
next to the chart's pole (pair-distance residual 5e-3 -> 1.2e-5).  The
finite-difference Christoffel contraction survives only in the tests, as an
independent oracle for the connection, and so does the step written as one
list comprehension per stage, as the bit-for-bit reference of the engine's.

The engine's step runs on lists of Python complex numbers, not numpy
arrays: at a few chart coordinates each numpy call costs more than the
arithmetic it does (on a 2-core x86 host one DOP853 step took 110-145 us
with numpy at every m <= 7).  For each number m of chart coordinates the
step is straight-line Python generated from the tableau and compiled at
its first use in a process (:func:`_compiled_step`), with the floating-point
operations of the comprehensions, in their order.  On that host one step
takes 14, 25, 36 and 47 us at m = 1-4 and 78 us at m = 7, against 35, 49,
62, 77 and 114 us for the comprehensions.  Compiling it takes 1.3, 2.4,
3.3 and 4.3 ms at m = 1-4 and 7.7 ms at m = 7, and grows with m: about
16 ms at m = 15, as ``geodesic-verify`` takes any ambient dim >= 2.
:func:`integrate_geodesic`, the engine's one caller, stacks the rows into
numpy arrays once, and all later work stays in numpy.

The module also certifies that superposition spheres are totally geodesic:
a shooting method aims a full-chart geodesic at the second basis ray,
restricting the initial direction to the sphere's two-real-dimensional
tangent plane, and reports how far the integrated path strays from the
sphere and how its arclength compares with ``arccos |<a|b>|``.

Every geodesic stops two steps past the farthest sample its checks read
(:func:`_stop_after`), and the certificate searches aim angles only within
the integrator's error of the aim that an exact geodesic takes
(:func:`_aim_half_width`).  The trimming changes no bit; the narrower
search moves the certificate's residuals at rounding level.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .projective import Ray, _modulus, _norm, _row_norms, _sphere_parts, _unit
# unused; perfbench's test_tracer_wraps_every_namespace_and_restores_them needs it bound
from .projective import project  # noqa: F401

__all__ = [
    "RECHART_THRESHOLD",
    "ChartPoint",
    "GeodesicPath",
    "TotalGeodesyCertificate",
    "ray_to_chart",
    "lie_derivative_normal",
    "integrate_geodesic",
    "integrated_pair_distances",
    "total_geodesy_certificate",
]

#: A chart is abandoned once any coordinate modulus exceeds this: at 1, a
#: step always starts in the chart of the largest homogeneous component.
RECHART_THRESHOLD = 1.0


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
    def reals(self) -> np.ndarray:
        """Interleaved real coordinates (u1, v1, u2, v2, ...)."""
        out = np.empty(2 * self.coords.size)
        out[0::2] = self.coords.real
        out[1::2] = self.coords.imag
        return out


def ray_to_chart(ray: Ray) -> ChartPoint:
    """Chart coordinates of a ray, based at its largest component.

    That component of a unit representative has modulus at least
    ``1/sqrt(dim)``, so the division is always safe.
    """
    rep = ray.rep
    base_index = int(np.argmax(np.abs(rep)))
    t = np.delete(rep, base_index) / rep[base_index]
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


# ---------------------------------------------------------------------------
# Metric assembly.

def _metric_real_batch(x: np.ndarray) -> np.ndarray:
    """Statistical metric matrices at a batch of real coordinate points.

    ``x`` has shape (..., 2m); the result has shape (..., 2m, 2m) acting on
    interleaved (u, v) displacements.
    """
    t = x[..., 0::2] + 1j * x[..., 1::2]
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
    return g


def _induced_block(x: np.ndarray) -> np.ndarray:
    """(u1, v1) block of the chart metric at interleaved real coordinates."""
    return _metric_real_batch(x)[0:2, 0:2]


def lie_derivative_normal(point: ChartPoint, normal: str) -> np.ndarray:
    """Finite-difference Lie derivative of the induced block along a normal.

    ``normal`` is ``"u2"`` or ``"v2"``: the constant coordinate vector field
    of the second chart coordinate's real or imaginary part.  For such a
    field the Lie derivative of the induced-block tensor is the plain
    central difference (step ``1e-4``) of the block's components.  It
    vanishes on the ``t2 = 0`` slice - that is the geometric content
    certified here - and is generically nonzero off it.
    """
    if point.coords.size < 2:
        raise ValueError("need at least two chart coordinates")
    if normal not in ("u2", "v2"):
        raise ValueError(f"normal must be 'u2' or 'v2', got {normal!r}")
    idx = 2 if normal == "u2" else 3
    eps = 1e-4
    xp = point.reals  # a fresh array
    xm = xp.copy()
    xp[idx] += eps
    xm[idx] -= eps
    return (_induced_block(xp) - _induced_block(xm)) / (2.0 * eps)


# ---------------------------------------------------------------------------
# Geodesic integration.

def _speed2(t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Squared speed ``(s |w|^2 - |conj(t).w|^2) / s^2``, ``s = 1 + |t|^2``, per row."""
    s = 1.0 + np.sum(np.abs(t) ** 2, axis=-1)
    tw = np.sum(t.conj() * w, axis=-1)
    return (s * np.sum(np.abs(w) ** 2, axis=-1) - np.abs(tw) ** 2) / s**2


#: The Dormand-Prince 8(5,3) tableau (Hairer, Norsett & Wanner, *Solving
#: Ordinary Differential Equations I*, sec. II.5), copied from scipy's
#: ``scipy/integrate/_ivp/dop853_coefficients.py``: rows 1-12 of ``A``, row 12
#: being ``B``, each as its nonzero entries ``(stage, coefficient)``.  Row
#: ``j`` builds the state of stage ``j + 1`` from the stage derivatives
#: ``k1 .. kj``; the last row builds the eighth-order solution.
_DOP853_TABLEAU = (
    ((1, 5.26001519587677318785587544488e-2),),
    ((1, 1.97250569845378994544595329183e-2), (2, 5.91751709536136983633785987549e-2)),
    ((1, 2.95875854768068491816892993775e-2), (3, 8.87627564304205475450678981324e-2)),
    ((1, 2.41365134159266685502369798665e-1), (3, -8.84549479328286085344864962717e-1),
     (4, 9.24834003261792003115737966543e-1)),
    ((1, 3.7037037037037037037037037037e-2), (4, 1.70828608729473871279604482173e-1),
     (5, 1.25467687566822425016691814123e-1)),
    ((1, 3.7109375e-2), (4, 1.70252211019544039314978060272e-1),
     (5, 6.02165389804559606850219397283e-2), (6, -1.7578125e-2)),
    ((1, 3.70920001185047927108779319836e-2), (4, 1.70383925712239993810214054705e-1),
     (5, 1.07262030446373284651809199168e-1), (6, -1.53194377486244017527936158236e-2),
     (7, 8.27378916381402288758473766002e-3)),
    ((1, 6.24110958716075717114429577812e-1), (4, -3.36089262944694129406857109825),
     (5, -8.68219346841726006818189891453e-1), (6, 2.75920996994467083049415600797e1),
     (7, 2.01540675504778934086186788979e1), (8, -4.34898841810699588477366255144e1)),
    ((1, 4.77662536438264365890433908527e-1), (4, -2.48811461997166764192642586468),
     (5, -5.90290826836842996371446475743e-1), (6, 2.12300514481811942347288949897e1),
     (7, 1.52792336328824235832596922938e1), (8, -3.32882109689848629194453265587e1),
     (9, -2.03312017085086261358222928593e-2)),
    ((1, -9.3714243008598732571704021658e-1), (4, 5.18637242884406370830023853209),
     (5, 1.09143734899672957818500254654), (6, -8.14978701074692612513997267357),
     (7, -1.85200656599969598641566180701e1), (8, 2.27394870993505042818970056734e1),
     (9, 2.49360555267965238987089396762), (10, -3.0467644718982195003823669022)),
    ((1, 2.27331014751653820792359768449), (4, -1.05344954667372501984066689879e1),
     (5, -2.00087205822486249909675718444), (6, -1.79589318631187989172765950534e1),
     (7, 2.79488845294199600508499808837e1), (8, -2.85899827713502369474065508674),
     (9, -8.87285693353062954433549289258), (10, 1.23605671757943030647266201528e1),
     (11, 6.43392746015763530355970484046e-1)),
    ((1, 5.42937341165687622380535766363e-2), (6, 4.45031289275240888144113950566),
     (7, 1.89151789931450038304281599044), (8, -5.8012039600105847814672114227),
     (9, 3.1116436695781989440891606237e-1), (10, -1.52160949662516078556178806805e-1),
     (11, 2.01365400804030348374776537501e-1), (12, 4.47106157277725905176885569043e-2)),
)


def _combination(row, i: int, y, k) -> str:
    """Source of component ``i`` of ``y + h * (a_1 k_1 + a_2 k_2 + ...)`` for
    one tableau row, ``y[i]`` and ``k[j][i]`` naming the components.

    A one-entry row reads ``y + h * a * k``, that is ``(h * a) * k``; a
    negative coefficient after the first is subtracted as its magnitude.
    """
    (j, a), rest = row[0], row[1:]
    if not rest:
        return f"{y[i]} + h * {a!r} * {k[j][i]}"
    terms = [f"{a!r} * {k[j][i]}"]
    terms += [f"{'-' if a < 0 else '+'} {abs(a)!r} * {k[j][i]}" for j, a in rest]
    return f"{y[i]} + h * ({' '.join(terms)})"


@functools.cache
def _compiled_step(m: int):
    """The fixed DOP853 step for ``m`` chart coordinates, compiled at its
    first use and kept for the life of the process.

    The step maps ``(y, h)``, ``y`` the stacked state ``t + t'`` as a list of
    2m Python complex numbers, to the state one step of ``h`` later, a new
    list.  Its source is straight-line code generated from
    :data:`_DOP853_TABLEAU`, one local per stage component.  The right-hand
    side ``(t', 2 (conj(t).t') t' / (1 + |t|^2))`` is written out per
    coordinate, accumulating ``conj(t).t'`` from ``0j`` and ``|t|^2`` from
    ``0.0`` in coordinate order.  No list, ``zip`` or Python function runs
    inside the step; the one call per coordinate and stage is
    ``complex.conjugate``.
    """
    y = [f"y{i}" for i in range(2 * m)]
    lines = ["def step(y, h):", f"    {', '.join(y)} = y"]
    k = [None]  # k[j]: the names of the components of stage j's derivative

    def derivative(j, state):
        # k_j = (t', c t'), c = 2 conj(t).t' / (1 + |t|^2) at the stage state
        t, w = state[:m], state[m:]
        lines.extend(["    tw = 0j", "    tt = 0.0"])
        for ti, wi in zip(t, w):
            lines.extend([f"    tc = {ti}.conjugate()", f"    tw += tc * {wi}",
                          f"    tt += (tc * {ti}).real"])
        lines.append("    c = 2.0 * tw / (1.0 + tt)")
        lines.extend(f"    a{j}_{i} = c * {w[i]}" for i in range(m))
        k.append(w + [f"a{j}_{i}" for i in range(m)])

    derivative(1, y)
    for j, row in enumerate(_DOP853_TABLEAU[:-1], start=2):
        state = [f"s{j}_{i}" for i in range(2 * m)]
        lines += [f"    {s} = {_combination(row, i, y, k)}" for i, s in enumerate(state)]
        derivative(j, state)
    lines.append("    return [")
    lines += [f"        {_combination(_DOP853_TABLEAU[-1], i, y, k)}," for i in range(2 * m)]
    lines.append("    ]")
    namespace = {}
    exec(compile("\n".join(lines), f"<DOP853 step, m = {m}>", "exec"), namespace)
    return namespace["step"]


def _rechart(base: int, y: list):
    """Switch the stacked state ``y = t + t'`` to its largest component's chart.

    Only a state with a coordinate modulus above ``RECHART_THRESHOLD``
    switches.  The new base is the argmax, which puts every coordinate
    modulus at or below one, the threshold, so a state switches again only
    once another component outgrows its base.  For one coordinate this is
    the flip ``t -> 1/t``.  Returns ``(base, y)``; the input list is not
    modified.
    """
    m = len(y) // 2
    if not max(map(abs, y[:m])) > RECHART_THRESHOLD:
        return base, y
    z, zdot = y[:m], y[m:]
    z.insert(base, 1 + 0j)
    zdot.insert(base, 0j)
    moduli = [abs(zi) for zi in z]
    k = moduli.index(max(moduli))
    zl, zldot = z.pop(k), zdot.pop(k)
    zl2 = zl * zl
    return k, ([zi / zl for zi in z]
               + [(zdi * zl - zi * zldot) / zl2 for zi, zdi in zip(z, zdot)])


#: Most DOP853 steps one path may take: 10**6 steps of 14-78 us (m = 1-7)
#: run for a quarter of a minute to a minute and a half, where a finer step
#: marches for hours, or for ever once ``length / dt`` overflows.
_MAX_STEPS = 10**6


def _march(base: int, t, w, length: float, dt: float):
    """Integrate the geodesic equation from one chart point.

    ``base`` is the chart base index and ``t``, ``w`` (m numbers each) the
    chart coordinates and velocity.  Each DOP853 step of ``dt`` (the last
    one shortened to land on ``length``) is followed by :func:`_rechart`.
    Yields ``(arclength, base, t, w)`` at the start and after every step,
    with ``t`` and ``w`` lists of Python complex numbers, which
    :func:`integrate_geodesic` stacks.  The first ``next`` raises
    ``ValueError`` unless ``0 < dt < inf`` and ``0 <= length < inf``, and
    when ``length / dt`` exceeds :data:`_MAX_STEPS`, before any step; only
    then is the step for m coordinates looked up (:func:`_compiled_step`),
    once per path.

    The step samples are all a path's users need, with no dense output in
    between: the closest-approach fit is exact on them (see
    :func:`_closest_approach`), and a path that starts tangent to a
    superposition sphere stays on it to rounding at every point, not only
    at the samples.  One step costs 14 us at m = 1 and 78 us at m = 7 on a
    2-core x86 host (see the module docstring).
    """
    if not (0.0 < dt < math.inf and 0.0 <= length < math.inf):
        raise ValueError(f"need 0 < dt < inf and 0 <= length < inf, got {dt}, {length}")
    if length / dt > _MAX_STEPS:
        raise ValueError(f"a geodesic of length {length} at dt {dt} takes {length / dt:.3g} "
                         f"steps, more than the bound of {_MAX_STEPS}; raise dt")
    m = len(t)
    step = _compiled_step(m)
    s, y = 0.0, [complex(x) for x in t] + [complex(x) for x in w]
    yield s, base, y[:m], y[m:]
    while s < length - 1e-15:
        h = min(dt, length - s)
        s += h
        base, y = _rechart(base, step(y, h))
        yield s, base, y[:m], y[m:]


def _closest_approach(arcl: np.ndarray, ov: np.ndarray):
    """Closest approach of a path sampled at arclengths ``arcl`` to B targets.

    ``ov`` (n, B) holds ``|<target|psi>|``; the squared ray distance is fitted
    by a parabola through its smallest sample and both neighbours, at their
    own arclengths: the steps need not be uniform, and the last one is
    usually shorter.  Along a geodesic through the target the squared
    distance is ``(s - d)**2``, a parabola, so the fit is exact there at any
    spacing.  Returns, per target, the index of that sample and the fitted
    arclength.
    """
    ov = np.clip(ov, 0.0, 1.0)
    dist2 = np.arctan2(np.sqrt(1.0 - ov**2), ov) ** 2
    kmin = np.clip(np.argmin(dist2, axis=0), 1, len(arcl) - 2)
    cols = np.arange(dist2.shape[1])
    ym, y0, yp = dist2[kmin - 1, cols], dist2[kmin, cols], dist2[kmin + 1, cols]
    p, q = arcl[kmin] - arcl[kmin - 1], arcl[kmin + 1] - arcl[kmin]
    # vertex of the parabola through (-p, ym), (0, y0), (q, yp)
    denom = p * (yp - y0) + q * (ym - y0)
    offset = 0.5 * (q * q * (ym - y0) - p * p * (yp - y0))
    return kmin, arcl[kmin] + offset / np.where(np.abs(denom) > 1e-300, denom, np.inf)


@dataclass(frozen=True, eq=False)
class GeodesicPath:
    """A geodesic sampled at the start and after every step, as stacked rows:
    ``samples[i]`` is homogeneous, 1 in slot ``bases[i]`` and the chart
    coordinates elsewhere, not normalized; ``velocities[i]`` is the chart
    velocity there."""

    arclengths: np.ndarray
    bases: np.ndarray
    samples: np.ndarray
    velocities: np.ndarray

    @property
    def max_speed_drift(self) -> float:
        """How far the speed after each step strayed from one: a step-size diagnostic."""
        n, dim = self.samples.shape
        coords = self.samples[np.arange(dim) != self.bases[:, None]].reshape(n, dim - 1)
        speeds = np.sqrt(_speed2(coords[1:], self.velocities[1:]))
        return float(np.max(np.abs(speeds - 1.0), initial=0.0))


def integrate_geodesic(start: Ray, direction, length: float, dt: float) -> GeodesicPath:
    """Integrate the geodesic equation from a ray along a Hilbert-space direction.

    Parameters
    ----------
    start : Ray
        Initial point, in the chart of its largest component (:func:`ray_to_chart`).
    direction : array_like
        A Hilbert-space vector.  Its chart velocity is the pushforward
        ``(d_j z_k - z_j d_k) / z_k**2`` at ``z = start.rep``, so a component
        along ``start.rep`` does not move the path, and one with nothing else
        raises ``ValueError``.  It is normalized to unit statistical speed, so
        the curve parameter is arclength of the statistical metric, and its
        scale does not matter: a finite direction is first rescaled by the
        power of two that brings its largest real or imaginary part into
        ``[0.5, 1)``, exactly, so the speed floor is relative to its size.
    length, dt : float
        Total arclength and step; the last step is shortened to land on
        ``length`` exactly; ``0 < dt < inf`` and ``0 <= length < inf``.
    """
    d = np.array(direction, dtype=np.complex128)  # a contiguous copy, rescaled in place
    if d.shape != (start.dim,):
        raise ValueError(f"direction must have shape ({start.dim},), got {d.shape}")
    parts = d.view(np.float64)
    size = float(np.max(np.abs(parts)))
    if 0.0 < size < math.inf:
        np.ldexp(parts, -math.frexp(size)[1], out=parts)
    chart = ray_to_chart(start)
    z, k = start.rep, chart.base_index
    keep = np.arange(start.dim) != k
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite speed raises below
        w0 = (d[keep] * z[k] - z[keep] * d[k]) / z[k] ** 2
        speed = math.sqrt(float(_speed2(chart.coords, w0)))
    if not math.isfinite(speed):
        raise ValueError(f"direction must have a finite statistical speed, got {speed}")
    if speed < 1e-14:
        raise ValueError("direction must have a component orthogonal to start.rep")
    arcl, bases, ts, ws = zip(*_march(k, chart.coords, w0 / speed, length, dt))
    bases = np.array(bases)
    return GeodesicPath(arclengths=np.array(arcl), bases=bases,
                        samples=_homogeneous(bases, np.array(ts)), velocities=np.array(ws))


def _aligned_frames(a: np.ndarray, b: np.ndarray):
    """Orthonormal pairs (e0, e1) with b = cos(d) e0 + sin(d) e1 for the rows
    of two stacks of unit representatives, compared pairwise: ``e0`` is the
    row of ``a``; returns the stack of ``e1``, ``cos``, ``sin`` and
    ``degenerate``.

    ``e1`` is phase-aligned so b's frame coordinates are real nonnegative;
    for orthogonal rays the alignment is a pure convention (flagged by the
    caller via the returned ``degenerate`` flags).  The phase ``conj(ov) /
    |ov|`` is divided part by part, as Python divides a complex number by a
    float; numpy's complex-by-real division multiplies by the reciprocal.
    The norms are :func:`_row_norms`, so a one-row stack gives the frame of
    one pair by one-vector arithmetic, bit for bit.
    """
    if a.ndim != 2 or a.shape != b.shape:
        raise ValueError(f"dimension mismatch: stacks of shape {a.shape} vs {b.shape}")
    if not np.all(np.abs(_row_norms(np.concatenate((a, b))) - 1.0) <= 1e-12):  # NaN included
        raise ValueError("ray representatives must have unit norm")
    ov = np.vecdot(a, b)
    c = _modulus(ov)
    if np.any(c >= 1.0 - 1e-14):
        raise ValueError("rays coincide; the connecting geodesic is trivial")
    degenerate = c < 1e-14
    phase, modulus = ov.conj(), np.where(degenerate, 1.0, c)
    phase.real /= modulus
    phase.imag /= modulus
    perp = np.where(degenerate[:, None], b, b * phase[:, None]) - c[:, None] * a
    s_norm = _row_norms(perp)
    return perp / s_norm[:, None], c, s_norm, degenerate


def _stop_after(reach: float, dt: float, cap: float) -> float:
    """Arclength at which a path whose checks read no sample past ``reach``
    may stop: ``min(cap, (ceil(reach/dt) + 2) dt)``.

    The closest-approach fit reads the sample nearest its minimum and both
    neighbours, so with the minimum at or before ``reach`` it reads no
    sample past index ``ceil(reach/dt) + 1``.  Up to that sample every step
    of :func:`_march` is a full ``dt``, as on a longer path, so the samples
    it reads are those of the longer path bit for bit; only the last step
    is shortened.  One step past is not enough: rounding can shorten the
    step that makes the last sample read by one ulp.  A step that
    :func:`_march` rejects (zero, negative, NaN, inf) gets ``cap``, so it
    still meets that guard.
    """
    if not (0.0 < dt < math.inf and reach / dt < math.inf):
        return cap
    return min(cap, (math.ceil(reach / dt) + 2) * dt)


# ---------------------------------------------------------------------------
# Integrated distances on the superposition sphere.

#: ``e0`` of every pair's frame ``(e0, e1)``, where the pair sweep starts.
_SWEEP_START = Ray(np.array([1.0 + 0j, 0j]))

#: Arclength at which the pair sweep stops at the latest: pi/2, and room.
_SWEEP_LENGTH = math.pi / 2.0 + 0.25
#: Most bytes a pair sweep may hold at once.
_MAX_SWEEP_BYTES = 2**30


def _check_sweep(shapes, dt: float) -> None:
    """Raise ``ValueError`` if sweeping pair stacks of ``shapes``, a ``(pairs,
    dim)`` per item, at the step ``dt`` would take more than
    :data:`_MAX_SWEEP_BYTES`: ten ``(pairs, dim)`` complex arrays per item
    (the stacks beside the temporaries of drawing them or of their frames)
    and 32 B per pair for each sample :func:`_march` may take."""
    samples = min(_SWEEP_LENGTH / dt, _MAX_STEPS) + 2.0 if 0.0 < dt else 0.0
    need = sum(16.0 * 10 * pairs * dim + 32.0 * samples * pairs for pairs, dim in shapes)
    if need > _MAX_SWEEP_BYTES:
        raise ValueError(f"a sweep of {sum(p for p, _ in shapes)} pairs at dt {dt!r} holds "
                         f"about {need / 2**20:.0f} MiB, more than {_MAX_SWEEP_BYTES >> 20} MiB")


def integrated_pair_distances(stacks, dt: float = 0.05) -> np.ndarray:
    """Distance between ray pairs measured by geodesic integration.

    ``stacks`` is a sequence of ``(a, b)``: two 2-D arrays of one shape,
    with the unit representatives of a pair's two rays in the same row of
    each; items may differ in dim.  The distances of every row of every item
    come back in order.

    For each pair the geodesic is integrated in the chart of the
    superposition sphere the pair spans, starting at the first ray and aimed
    at the second; the returned value is the arclength at the closest
    approach to the second ray, extracted by a parabolic fit of the squared
    ray distance around its minimum.  No arccos of the overlap enters the
    measurement; comparing ``cos**2`` of the result with ``|<a|b>|**2`` is
    therefore a genuine check, not a tautology.

    In the frame ``(e0, e1)`` of :func:`_aligned_frames` every pair's
    geodesic is the same great circle ``cos(s) e0 + sin(s) e1``; only the
    target ``cos_d e0 + sin_d e1`` differs.  So one integration serves all
    pairs.  It stops two steps past the farthest target
    (:func:`_stop_after`), at most at :data:`_SWEEP_LENGTH`: the fit reads
    no later sample, so the result is that of the full quarter circle bit
    for bit.  Too large a sweep raises :func:`_check_sweep`'s error first.
    """
    frames = [_aligned_frames(a, b) for a, b in stacks]
    _check_sweep([f[0].shape for f in frames], dt)
    cos_d = np.concatenate([np.empty(0)] + [f[1] for f in frames])
    sin_d = np.concatenate([np.empty(0)] + [f[2] for f in frames])
    far = float(np.max(np.arctan2(sin_d, cos_d), initial=0.0))
    # from the first ray along e1, which aims at the second
    path = integrate_geodesic(_SWEEP_START, [0, 1],
                              _stop_after(far, dt, _SWEEP_LENGTH), dt)
    z = path.samples
    ov = np.abs(cos_d * z[:, :1] + sin_d * z[:, 1:])
    ov /= _norm(z)[:, None]
    return _closest_approach(path.arclengths, ov)[1]


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

    aim_angle: float
    target_length: float
    length_match: float
    max_offslice_residual: float
    arrival_miss: float
    iterations: int
    converged: bool


def _shoot(a: Ray, e1, cos_d, sin_d, chi, length, dt):
    """Integrate one aimed geodesic; return signed miss and arrival data.

    The shot leaves ``a`` along ``exp(i chi) e1``, ``e1`` from
    :func:`_aligned_frames`.  The arrival miss is assembled from the
    transverse in-sphere component ``Im(beta conj(alpha))`` and the
    off-sphere membership residual, not from the overlap magnitude with the
    target: the magnitude route cannot resolve distances below sqrt(machine
    eps) because ``1 - |<b|psi>|^2`` cancels, while the transverse product
    is exact to rounding.  The arclength of closest approach still comes
    from a parabolic fit of the squared distance, whose *position* is
    insensitive to that floor.  Each sample is normalized once; its
    coordinates ``alpha``, ``beta`` on the orthonormal pair ``(a, e1)`` and
    its membership residual come from one :func:`_sphere_parts` call.
    """
    # the closest-approach fit needs three samples: a shot no longer than one
    # step takes two equal ones (a dt that is not finite meets _march's guard)
    step = 0.5 * length if length <= dt < math.inf else dt
    path = integrate_geodesic(a, np.exp(1j * chi) * e1, length, step)
    alphas, betas, membership = _sphere_parts(_unit(path.samples), a.rep, e1)
    ov = np.abs(cos_d * alphas + sin_d * betas)[:, None]
    kmin, s_star = _closest_approach(path.arclengths, ov)
    kmin = int(kmin[0])
    in_sphere = float(np.abs(alphas[kmin]) ** 2 + np.abs(betas[kmin]) ** 2)
    signed = float((betas[kmin] * np.conj(alphas[kmin])).imag) / in_sphere
    arrival_miss = math.hypot(signed, membership[kmin])
    member_max = float(np.max(membership[: kmin + 2]))
    return signed, abs(arrival_miss), float(s_star[0]), member_max


#: Largest arrival miss of a converged shooting certificate.
_ARRIVAL_TOL = 1e-8

#: Machine epsilon of float64: the gap between 1 and the next float.
_EPS = float(np.finfo(float).eps)

#: Relative root tolerance of Brent's method: scipy's ``brentq`` default.
_BRENT_RTOL = 4.0 * _EPS

#: Most Brent iterations of one certificate; a certificate that runs out of
#: them is reported not converged.
_BRENT_MAXITER = 200


#: Widest half-width of Brent's bracket of aim angles around the predicted
#: aim 0: the whole search, for steps too coarse to narrow it.
_AIM_HALF_WIDTH = 0.6


def _aim_half_width(dim: int, target: float, dt: float) -> float:
    """Half-width of Brent's bracket around the aim 0 that
    :func:`_aligned_frames` predicts, from DOP853's error at the step ``dt``.

    Exact geodesics reach ``b`` at aim 0; the root moves only by the
    integrator's error.  The bound has three parts:

    - *Where the chart is analytic.*  At each step start the chart base is
      the largest component, so ``|z_k|**2 >= 1/dim`` for the unit
      representative ``z``.  The geodesic ``z cos(s) + v sin(s)`` leaves the
      chart where ``tan(s) = -z_k/v_k``; as ``|tan(s)| <= tan(|s|)`` for
      complex ``|s| < pi/2`` and ``|z_k|**2 + |v_k|**2 <= 1``, the chart
      coordinates are analytic in the disk ``|s| < rho = atan(1/sqrt(dim -
      1))`` around the step start.
    - *The error.*  An order-8 step on such a solution, of coordinates of
      modulus at most 1, errs by about ``(dt/rho)**9`` (Cauchy's estimate
      for the ninth derivative, unit error constant), so the ``L/dt`` steps
      to the sample read, ``L = target + dt``, add to
      ``E = (L/rho) (dt/rho)**8``, plus rounding of ``16 eps`` a step.
    - *The sensitivity.*  At aim ``chi`` the signed miss read at arclength
      ``s`` is ``sin(2s) sin(chi) / 2``, and an error ``E`` in the state
      moves it by at most ``2E``.  The sample read lies within a step of
      ``target``, so the root has ``|sin(chi)| <= 4E / min |sin(2s)|`` over
      ``|s - target| <= dt``, and ``|chi| <= 8E / min |sin(2s)|``.

    The half-width is that bound, at most :data:`_AIM_HALF_WIDTH`, which a
    step of ``rho`` or more, or a window that meets a pole of the sphere
    (``sin(2s) = 0``), gets whole.  Measured against Brent's root over the
    whole ``[-0.6, 0.6]``, on 60 random pairs of dims 3-8 at each step from
    0.01 to 0.2, the root lay at least 3.8 decades inside the bound (4.9
    decades from 0.025 up, where truncation dominates).
    """
    rho = math.atan(1.0 / math.sqrt(dim - 1))
    lo, hi = 2.0 * (target - dt), 2.0 * (target + dt)
    if not (0.0 < dt < rho and 0.0 < lo and hi < math.pi):
        return _AIM_HALF_WIDTH
    length = target + dt
    err = (length / rho) * (dt / rho) ** 8 + 16.0 * _EPS * (length / dt + 1.0)
    return min(_AIM_HALF_WIDTH, 8.0 * err / min(math.sin(lo), math.sin(hi)))


def _reach(target: float, width: float) -> float:
    """Farthest arclength at which a shot aimed at most ``width`` off the
    predicted aim comes closest to a target ``target`` away.

    On the sphere, the great circle leaving ``a`` at aim angle ``chi`` comes
    closest to ``b`` where ``tan(2s) = tan(2 target) cos(chi)``: before
    ``target`` when ``target < pi/4`` and after it otherwise, the farthest
    at ``|chi| = width``.
    """
    return max(target, 0.5 * math.atan2(math.sin(2.0 * target) * math.cos(width),
                                        math.cos(2.0 * target)))


class _NoRootBracketed(ValueError):
    """:func:`_brent_root` found no sign change to search: a bracket whose
    ends have the same sign, or a NaN value."""


def _brent_root(f, a: float, b: float, xtol: float, maxiter: int) -> tuple[float, bool]:
    """Root of ``f`` bracketed by ``[a, b]`` by Brent's method: ``(root, converged)``.

    A line-for-line port of the loop of scipy's ``brentq.c`` (Brent 1973,
    *Algorithms for Minimization Without Derivatives*, ch. 4), so it calls
    ``f`` at the same points and returns the same bits, with the rules of
    scipy's ``brentq`` wrapper: relative tolerance ``4 eps``; a NaN value
    or a bracket whose ends have the same sign raises
    :class:`_NoRootBracketed`, a ``ValueError``; an end where ``f`` is
    exactly 0 is returned at once; ``converged`` is False only when
    ``maxiter`` iterations run out, with the last point evaluated as the
    root.
    """
    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise _NoRootBracketed(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = a, b
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0:
        return xpre, True
    if fcur == 0:
        return xcur, True
    if (fpre < 0) == (fcur < 0):
        raise _NoRootBracketed("f(a) and f(b) must have different signs")
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


def total_geodesy_certificate(a: Ray, b: Ray, dt: float = 0.05) -> TotalGeodesyCertificate:
    """Certify by shooting that the sphere spanned by two rays is geodesic.

    The geodesic is integrated with the full chart metric of the ambient
    projective space - nothing constrains it to the sphere - with the
    initial direction restricted to the sphere's tangent plane at ``a``,
    parametrized by one angle.  A bracketing root search on the signed
    transverse miss aims the path at ``b``: Brent's method (Brent 1973,
    ch. 4) as :func:`_brent_root` ports it from scipy's ``brentq.c``, bit
    for bit, so scipy is not imported at run time.  The certificate is
    ``converged`` when Brent converged within :data:`_BRENT_MAXITER`
    integrations and the arrival miss is at most ``1e-8``; otherwise the
    failure is reported in the certificate rather than raised.  The
    certificate reads the shot Brent already made at its root; no aim
    angle is integrated twice.

    In the frame of :func:`_aligned_frames` an exact geodesic reaches ``b``
    at aim 0, so Brent's bracket is ``[-delta, delta]``, with ``delta``
    from DOP853's error bound at ``dt`` over the miss's sensitivity to the
    aim (:func:`_aim_half_width`), at most 0.6.  A path bent by more than
    the integrator's error needs an aim outside the bracket: the bracket
    then holds no sign change, and the certificate is not converged.  Each
    shot stops two steps past the farthest closest approach an aim in the
    bracket can have (:func:`_reach`, :func:`_stop_after`), at most at
    ``min(target + 0.15, pi/2 + 0.2)``.

    Rays of different dimensions raise ``ValueError``.
    """
    e1, cos_d, sin_d, degenerate = _aligned_frames(a.rep[None], b.rep[None])
    e1, cos_d, sin_d = e1[0], float(cos_d[0]), float(sin_d[0])
    target = math.atan2(sin_d, cos_d)
    if target < 1e-3:
        raise ValueError("rays are too close for a meaningful certificate")
    width = _aim_half_width(a.dim, target, dt)
    length = _stop_after(_reach(target, width), dt,
                         min(target + 0.15, math.pi / 2.0 + 0.2))
    shots = {}

    def shoot(chi):
        if chi not in shots:
            shots[chi] = _shoot(a, e1, cos_d, sin_d, chi, length, dt)
        return shots[chi]

    converged = True
    if degenerate[0] or target > math.pi / 2.0 - 1e-6:
        # orthogonal endpoints: b is the antipode, reached at every aim
        # angle, so the transverse miss has no sign change to bracket
        chi_star = 0.0
    else:
        try:
            # xtol 1e-14 resolves the aim to rounding; at 1e-12 Brent may stop
            # with a miss of 1e-14 to 1e-13, its own tolerance, not the path's
            chi_star, converged = _brent_root(lambda chi: shoot(chi)[0], -width, width,
                                              xtol=1e-14, maxiter=_BRENT_MAXITER)
        except _NoRootBracketed:
            # no sign change in the bracket, or a NaN miss: report the midpoint aim
            chi_star = 0.0
            converged = False
    _, miss, s_star, member_max = shoot(chi_star)
    evals = len(shots)
    return TotalGeodesyCertificate(
        aim_angle=float(chi_star),
        target_length=target,
        length_match=abs(s_star - target),
        max_offslice_residual=member_max,
        arrival_miss=miss,
        iterations=evals,
        converged=converged and miss <= _ARRIVAL_TOL and evals <= _BRENT_MAXITER + 1,
    )

