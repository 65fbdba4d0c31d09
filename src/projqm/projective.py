"""Rays, the space of physical states, and superposition spheres.

A physical state is a ray: an equivalence class of nonzero vectors under
complex rescaling.  Rays are represented by a gauge-fixed unit vector so that
equality of states becomes (near) equality of arrays.  Two orthogonal rays
span a two-sphere of superpositions; a complex parameter labels its points in
stereographic fashion, including the point at infinity.

The statistical distance between rays is ``arccos |<a|b>|``; transition
probabilities are ``cos^2`` of it.  The round two-sphere of superpositions
has total area pi in this normalization (the Fubini-Study area of CP^1).
:func:`sphere_area` verifies it by quadrature of the area element that the
metric pulls back through the embedding, not by formula: a fixed pair of
Gauss-Legendre rules in the polar angle, whose difference is the error
estimate, times the periodic trapezoid rule in the azimuth.  It reads pi to
rounding, within 4e-15.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .hilbert import as_state

__all__ = [
    "GAUGE_TOL",
    "Ray",
    "RiemannCoordinate",
    "SpannedSphere",
    "project",
    "rays_close",
    "fs_distance",
    "transition_probability",
    "nonlinear_superpose",
    "riemann_coordinate",
    "sphere_membership",
    "sphere_area",
]

#: Modulus below which a leading component is treated as zero by the gauge fix.
GAUGE_TOL = 1e-12

#: Gauss-Legendre nodes in theta of :func:`sphere_area`'s coarse rule (the
#: fine rule has twice as many) and trapezoid points in phi of both.
_THETA_NODES = 16
_PHI_POINTS = 16


@dataclass(frozen=True, eq=False)
class Ray:
    """A gauge-fixed representative of a physical state.

    The representative has unit norm and its first component of modulus
    above :data:`GAUGE_TOL` is real and strictly positive.  Construct rays
    with :func:`project`; the constructor validates but does not repair.
    """

    rep: np.ndarray

    def __post_init__(self):
        v = self.rep
        if v.ndim != 1 or v.size == 0:
            raise ValueError("ray representative must be a nonempty vector")
        if not abs(float(_row_norms(v)) - 1.0) <= 1e-12:  # NaN included
            raise ValueError("ray representative must have unit norm")
        comp = v[_lead(v)]
        if not (abs(comp.imag) <= GAUGE_TOL * abs(comp) and comp.real > 0.0):
            raise ValueError("ray representative is not gauge fixed: leading "
                             "component must be real and positive")

    @property
    def dim(self) -> int:
        return self.rep.shape[0]

    def overlap_with(self, other: "Ray") -> complex:
        return complex(np.vdot(self.rep, other.rep))


def _modulus(z):
    """``|z|`` elementwise, with the libm ``hypot`` that ``abs`` of one
    complex number uses (numpy's vectorized ``abs`` can differ in the last
    bit)."""
    return np.hypot(z.real, z.imag)


def _norm(v: np.ndarray) -> np.ndarray:
    """Norm of each row of a stack in one reduction, the route of the flow's
    gauge fix, the geodesics' samples and :func:`_sphere_parts`; it differs
    from :func:`_row_norms` in the last bit in 7-28% of rows.  The routes
    stay two: :func:`_row_norms` here slows ``flow_integrate`` by half, and
    this route in :func:`project` moves ``geodesic-verify`` digests."""
    return np.linalg.norm(v, axis=-1)


def _row_norms(v: np.ndarray):
    """Norm of a vector, or of each row of a stack, by ``np.linalg.norm``'s
    route for one vector (two real BLAS dots), so a row's norm is that of
    the row alone: the route of :func:`project`, the unit-norm checks and
    :func:`_fs_distances`."""
    re, im = v.real, v.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


def _unit(v: np.ndarray, norm=_norm) -> np.ndarray:
    """A vector, or each row of a stack, over its norm by the route ``norm``."""
    return v / norm(v)[..., None]


def _lead(v: np.ndarray):
    """Index of the first component of modulus above :data:`GAUGE_TOL` of a
    vector, or of each row of a stack."""
    k = np.argmax(_modulus(v) > GAUGE_TOL, axis=-1)
    return k if v.ndim == 1 else (np.arange(v.shape[0]), k)


def _gauge_fix(v: np.ndarray, norm=_norm) -> np.ndarray:
    """Normalize a finite nonzero vector, or each row of a stack of them, and
    rotate its global phase so the first component of modulus above
    :data:`GAUGE_TOL` is real and positive; that component is then pinned
    exactly real (its imaginary part is pure roundoff).

    Unvalidated, and without Python loops over components.  With
    ``norm=_row_norms`` every row gets :func:`project`'s representative bit
    for bit; the flow's samples take :func:`_norm`.
    """
    v = _unit(v, norm)
    comp = v[_lead(v)]
    v = _unit(v * (comp.conj() / _modulus(comp))[..., None], norm)
    k = _lead(v)
    v[k] = _modulus(v[k])
    return v


def project(psi) -> Ray:
    """Project a nonzero vector to its gauge-fixed ray representative.

    Normalizes to unit length, then rotates the global phase so the first
    component of modulus above :data:`GAUGE_TOL` is real and positive.  Any
    two vectors on the same ray map to representatives agreeing to roundoff.
    """
    v = as_state(psi, name="psi")
    if _row_norms(v) < GAUGE_TOL:
        raise ValueError("cannot project a (numerically) zero vector")
    v = _gauge_fix(v, _row_norms)
    v.setflags(write=False)
    return Ray(rep=v)


def rays_close(a: Ray, b: Ray, tol: float = 1e-12) -> bool:
    """True when two gauge-fixed representatives agree entrywise within tol."""
    if a.dim != b.dim:
        return False
    return bool(np.max(np.abs(a.rep - b.rep)) <= tol)


def _as_ray(x) -> Ray:
    return x if isinstance(x, Ray) else project(x)


def fs_distance(a, b) -> float:
    """Statistical distance ``arccos |<a|b>|`` between two rays.

    Evaluated as ``atan2(sin, cos)`` with ``sin`` the norm of the component
    of one representative orthogonal to the other, which is accurate near
    coincident rays where the plain arccos loses half the digits.  Range is
    ``[0, pi/2]``.
    """
    ra, rb = _as_ray(a), _as_ray(b)
    if ra.dim != rb.dim:
        raise ValueError(f"dimension mismatch: {ra.dim} vs {rb.dim}")
    return float(_fs_distances(ra.rep[None], rb.rep[None])[0])


def _fs_sin_cos(ra: np.ndarray, rb: np.ndarray):
    """``(sin, cos)`` of :func:`_fs_distances` by the stack reduction
    (:func:`_norm`), the route of
    :func:`~projqm.dynamics.flow_vs_exact_deviation`; unvalidated."""
    ov = np.sum(rb.conj() * ra, axis=-1)
    return _norm(ra - rb * ov[:, None]), _modulus(ov)


def _fs_distances(ra: np.ndarray, rb: np.ndarray) -> np.ndarray:
    """:func:`fs_distance` between the rows of two stacks of unit
    representatives, compared pairwise, as it is on one-row stacks;
    unvalidated.  Each row takes the routes of one vector (``vecdot`` is
    ``vdot``'s BLAS call, :func:`_row_norms` ``np.linalg.norm``'s) and
    libm's ``atan2``, as ``np.arctan2`` can differ in the last bit.
    """
    ov = np.vecdot(rb, ra)
    s = _row_norms(ra - rb * ov[:, None])
    c = np.minimum(_modulus(ov), 1.0)
    return np.array([math.atan2(y, x) for y, x in zip(s.tolist(), c.tolist())])


def transition_probability(a, b) -> float:
    """Probability ``|<a|b>|^2`` for rays, equal to ``cos^2`` of the distance.

    Both routes are evaluated and must agree to 1e-12; this cross-check is
    the point of the function, not an optimization.

    Raises
    ------
    RuntimeError
        If the two routes disagree.
    """
    ra, rb = _as_ray(a), _as_ray(b)
    via_distance = math.cos(fs_distance(ra, rb)) ** 2  # which checks the dims
    direct = float(abs(np.vdot(ra.rep, rb.rep)) ** 2)
    if abs(direct - via_distance) > 1e-12:
        raise RuntimeError(
            f"transition probability routes disagree: {direct!r} vs {via_distance!r}"
        )
    return direct


@dataclass(frozen=True, eq=False)
class RiemannCoordinate:
    """Point of the superposition sphere in homogeneous form ``(w0, w1)``.

    The pair is defined up to common complex scale and normalized so
    ``max(|w0|, |w1|) = 1``; ``w0 = 0`` encodes the point at infinity.
    """

    w0: complex
    w1: complex

    def __post_init__(self):
        m = max(abs(self.w0), abs(self.w1))
        if not math.isfinite(m) or m == 0.0:
            raise ValueError("homogeneous coordinate must be finite and nonzero")
        if abs(m - 1.0) > 1e-9:
            raise ValueError(f"coordinate must be normalized: max modulus {m!r}")

    @classmethod
    def from_pair(cls, w0: complex, w1: complex) -> "RiemannCoordinate":
        m = max(abs(w0), abs(w1))
        if m == 0.0:
            raise ValueError("homogeneous coordinate must be nonzero")
        return cls(w0=complex(w0) / m, w1=complex(w1) / m)

    @classmethod
    def from_z(cls, z: complex) -> "RiemannCoordinate":
        return cls.from_pair(1.0, complex(z))

    @property
    def is_infinity(self) -> bool:
        return abs(self.w0) == 0.0

    @property
    def z(self) -> complex:
        """Affine coordinate ``w1/w0``; raises at the point at infinity."""
        if self.is_infinity:
            raise ZeroDivisionError("coordinate is the point at infinity")
        return self.w1 / self.w0


@dataclass(frozen=True, eq=False)
class SpannedSphere:
    """Two-sphere of superpositions of an orthonormal pair of states.

    The defining data are the actual representative vectors, not just their
    rays: rephasing a representative relabels the sphere's coordinate (the
    coordinate of a fixed point transforms as ``z -> e^{-i lam} z`` when
    ``rep1`` picks up ``e^{i lam}``), so the representatives must be pinned
    down for the chart to be well defined.
    """

    rep0: np.ndarray
    rep1: np.ndarray

    def __post_init__(self):
        r0 = as_state(self.rep0, name="rep0")
        r1 = as_state(self.rep1, name="rep1")
        if r0.shape != r1.shape:
            raise ValueError(f"basis representatives must share a dimension: "
                             f"{r0.shape[0]} vs {r1.shape[0]}")
        if np.any(np.abs(_row_norms(np.array((r0, r1))) - 1.0) > 1e-12):
            raise ValueError("basis representatives must be unit vectors")
        ov = abs(np.vdot(r0, r1))
        if ov > 1e-10:
            raise ValueError(f"basis representatives must be orthogonal: |<0|1>| = "
                             f"{ov:.3e}; orthonormalize first (gram_schmidt)")
        object.__setattr__(self, "rep0", r0)
        object.__setattr__(self, "rep1", r1)

    @classmethod
    def from_rays(cls, a: Ray, b: Ray) -> "SpannedSphere":
        return cls(rep0=a.rep.copy(), rep1=b.rep.copy())

    @property
    def dim(self) -> int:
        return self.rep0.shape[0]

    def rephased(self, lam1: float) -> "SpannedSphere":
        """Same sphere with ``rep1`` rotated by ``e^{i lam1}``."""
        return SpannedSphere(rep0=self.rep0, rep1=self.rep1 * np.exp(1j * lam1))

    def point(self, coord: RiemannCoordinate) -> Ray:
        """The ray ``[w0 rep0 + w1 rep1]`` at a coordinate of the sphere."""
        return project(coord.w0 * self.rep0 + coord.w1 * self.rep1)


def nonlinear_superpose(psi, phi, coord) -> Ray:
    """Superposition ray ``[w0 psi + w1 phi]`` labeled by a sphere coordinate.

    ``psi`` and ``phi`` must be orthogonal rays of one dimension (overlap
    below 1e-10); :class:`SpannedSphere` rejects other inputs, with a
    pointer at Gram-Schmidt.  The coordinate may be a
    :class:`RiemannCoordinate` or a plain complex ``z`` (shorthand for
    ``(1, z)``).
    """
    sphere = SpannedSphere.from_rays(_as_ray(psi), _as_ray(phi))
    if not isinstance(coord, RiemannCoordinate):
        coord = RiemannCoordinate.from_z(coord)
    return sphere.point(coord)


def _sphere_parts(rows: np.ndarray, rep0: np.ndarray, rep1: np.ndarray):
    """``(w0, w1, off)`` of every unit row ``r`` of a stack on an orthonormal
    pair: ``w_i = <rep_i|r>`` and the norm of ``r - w0 rep0 - w1 rep1``,
    from one pair of projections; unvalidated, and not normalized again."""
    w0 = rows @ rep0.conj()
    w1 = rows @ rep1.conj()
    return w0, w1, _norm(rows - w0[:, None] * rep0 - w1[:, None] * rep1)


def sphere_membership(x, sphere: SpannedSphere) -> float:
    """Distance from a ray to the sphere: the off-span norm of its unit
    representative, by :func:`_sphere_parts`.

    Zero (to roundoff) exactly for points on the sphere; invariant under
    rephasing of either basis representative.
    """
    r = _as_ray(x)
    if r.dim != sphere.dim:
        raise ValueError(f"dimension mismatch: {r.dim} vs {sphere.dim}")
    return float(_sphere_parts(r.rep[None], sphere.rep0, sphere.rep1)[2][0])


def riemann_coordinate(x, sphere: SpannedSphere) -> RiemannCoordinate:
    """Coordinate of a ray on a spanned sphere.

    Inverts :func:`nonlinear_superpose` for the sphere's fixed basis
    representatives: ``w_i = <rep_i|x>`` up to common scale, read with the
    membership residual from one :func:`_sphere_parts` call.  Rays off the
    sphere (membership residual above 1e-10) are rejected.
    """
    r = _as_ray(x)
    if r.dim != sphere.dim:
        raise ValueError(f"dimension mismatch: {r.dim} vs {sphere.dim}")
    (w0,), (w1,), (res,) = _sphere_parts(r.rep[None], sphere.rep0, sphere.rep1)
    if res > 1e-10:
        raise ValueError(f"ray is not on the sphere: membership residual {res:.3e}")
    return RiemannCoordinate.from_pair(complex(w0), complex(w1))


def _area_element(sphere: SpannedSphere, theta, phi) -> np.ndarray:
    """sqrt(det) of the pulled-back statistical metric at grid points.

    ``theta``/``phi`` broadcast; tangent vectors are computed analytically
    from the embedding and projected horizontally before taking overlaps, so
    this is the same metric the rest of the package uses, not a closed form.
    """
    theta = np.asarray(theta, dtype=float)[:, None, None]
    phi = np.asarray(phi, dtype=float)[None, :, None]
    r0 = sphere.rep0[None, None, :]
    r1 = sphere.rep1[None, None, :]
    ct, st = np.cos(theta / 2.0), np.sin(theta / 2.0)
    eip = np.exp(1j * phi)
    xi = ct * r0 + st * eip * r1
    d_theta = 0.5 * (-st * r0 + ct * eip * r1)
    d_phi = 1j * st * eip * r1
    # horizontal projection: remove the component along the point itself
    d_theta = d_theta - np.sum(xi.conj() * d_theta, axis=-1, keepdims=True) * xi
    d_phi = d_phi - np.sum(xi.conj() * d_phi, axis=-1, keepdims=True) * xi
    E = np.sum(d_theta.conj() * d_theta, axis=-1).real
    G = np.sum(d_phi.conj() * d_phi, axis=-1).real
    F = np.sum(d_theta.conj() * d_phi, axis=-1).real
    det = E * G - F * F
    return np.sqrt(np.maximum(det, 0.0))


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on ``[0, pi]``,
    computed on first use (``numpy.polynomial`` is not imported with the
    package) and kept, read-only, for the process."""
    from numpy.polynomial.legendre import leggauss
    x, w = leggauss(n)
    rule = (0.5 * math.pi * (x + 1.0), 0.5 * math.pi * w)
    for arr in rule:
        arr.setflags(write=False)
    return rule


def sphere_area(sphere: SpannedSphere) -> float:
    """Total area of a superposition sphere by direct quadrature.

    Integrates :func:`_area_element`, the statistical metric pulled back
    through the embedding, over the (theta, phi) parametrization.  In theta
    the element is smooth on ``[0, pi]`` (``sin(theta)/4`` analytically), and
    a Gauss-Legendre rule converges geometrically: two fixed rules, of
    ``_THETA_NODES`` and twice as many nodes, give the area (the finer) and
    its error estimate (their difference), which must be below ``tol/2`` with
    ``tol = 1e-6``.  In phi the element is constant, because rephasing
    ``rep1`` shifts phi and preserves the metric, so both rules share one
    periodic trapezoid rule of ``_PHI_POINTS`` points.  ``|area - pi|`` reads
    2.7e-15 to 4.0e-15 in ambient dims 2-8.

    Raises
    ------
    RuntimeError
        If the two rules disagree (or give NaN); the message carries the
        error estimate.
    """
    tol = 1e-6
    coarse, fine = (_gauss_legendre(n) for n in (_THETA_NODES, 2 * _THETA_NODES))
    phis = np.linspace(0.0, 2.0 * math.pi, _PHI_POINTS, endpoint=False)
    da = _area_element(sphere, np.concatenate((coarse[0], fine[0])), phis)
    f_theta = da.sum(axis=1) * (2.0 * math.pi / _PHI_POINTS)
    area_coarse = float(np.dot(coarse[1], f_theta[:_THETA_NODES]))
    area = float(np.dot(fine[1], f_theta[_THETA_NODES:]))
    estimate = abs(area - area_coarse)
    if not estimate < tol / 2.0:  # NaN included
        raise RuntimeError(
            f"sphere area quadrature did not converge: error estimate {estimate:.3e} "
            f"between {_THETA_NODES} and {2 * _THETA_NODES} theta nodes (tol {tol:.1e})"
        )
    return area
