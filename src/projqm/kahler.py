"""Metric and symplectic structure on the space of rays.

Horizontal tangent vectors at a ray are vectors orthogonal to its
representative; every Hermitian operator F induces the expectation-value
function f and a Hamiltonian vector field with horizontal lift
``-i (F - <F>) rep``.

Two normalizations of the same Kahler structure are carried explicitly as
:class:`KahlerScale` and never mixed implicitly:

* ``STATISTICAL`` (factor 1): distances are ``arccos |<a|b>|``, probabilities
  are ``cos^2`` of them, the superposition sphere has area pi.
* ``OBSERVABLE`` (factor 2): the symplectic evaluation of two Hamiltonian
  fields equals ``<-i[F,G]>`` on the nose, and the metric product of a field
  with itself equals twice the variance.

The factor of two is not an axiom here: :func:`derive_observable_scale_factor`
re-derives it from the spin-1/2 oracle, and the test suite pins it before the
observable scale is used anywhere.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    as_hermitian,
    as_state,
    commutator_expectation,
    evolve_exact,
    expectation,
    sigma_x,
    sigma_z,
    symmetrized_covariance,
)
from .projective import Ray, fs_distance, project, rays_close

__all__ = [
    "KahlerScale",
    "TangentVector",
    "ObservableFunction",
    "UncertaintyAudit",
    "horizontal_project",
    "random_horizontal",
    "hamiltonian_vector_field",
    "metric_eval",
    "symplectic_eval",
    "poisson_bracket",
    "riemannian_product",
    "derive_observable_scale_factor",
    "flow_transport",
    "killing_residual",
    "commutator_closure_residual",
    "uncertainty_audit",
    "eigen_extrema",
]


class KahlerScale(enum.Enum):
    """Normalization of the metric/symplectic pair; see the module docstring."""

    STATISTICAL = 1.0
    OBSERVABLE = 2.0

    @property
    def factor(self) -> float:
        return float(self.value)


@dataclass(frozen=True, eq=False)
class TangentVector:
    """Horizontal tangent vector at a ray.

    ``vec`` lives in the Hilbert space and satisfies ``<base.rep|vec> = 0``
    up to roundoff scaled by the vector's size.
    """

    base: Ray
    vec: np.ndarray

    def __post_init__(self):
        v = as_state(self.vec, name="vec")
        if v.shape[0] != self.base.dim:
            raise ValueError("tangent vector dimension does not match base ray")
        drift = abs(np.vdot(self.base.rep, v))
        if drift > 1e-12 * max(1.0, float(np.linalg.norm(v))):
            raise ValueError(f"tangent vector is not horizontal: |<rep|vec>| = {drift:.3e}")
        object.__setattr__(self, "vec", v)

    @property
    def dim(self) -> int:
        return self.base.dim


def horizontal_project(base: Ray, raw) -> TangentVector:
    """Horizontal part of an arbitrary Hilbert-space vector at ``base``."""
    v = as_state(raw, name="raw")
    if v.shape[0] != base.dim:
        raise ValueError("vector dimension does not match base ray")
    h = v - np.vdot(base.rep, v) * base.rep
    return TangentVector(base=base, vec=h)


def random_horizontal(base: Ray, rng: np.random.Generator) -> TangentVector:
    """A random horizontal tangent vector of statistical norm one."""
    raw = rng.standard_normal(base.dim) + 1j * rng.standard_normal(base.dim)
    h = horizontal_project(base, raw).vec
    nrm = float(np.linalg.norm(h))
    if nrm < 1e-8:  # pragma: no cover - probability zero
        return random_horizontal(base, rng)
    return TangentVector(base=base, vec=h / nrm)


def hamiltonian_vector_field(op, at: Ray) -> TangentVector:
    """Hamiltonian vector field of ``f = <F>`` at a ray.

    The horizontal lift is ``-i (F - <F>) rep``; subtracting the expectation
    makes the result horizontal and kills any multiple of the identity added
    to ``F``, so constants generate no motion on the space of rays.
    """
    F = as_hermitian(op, name="op")
    if F.shape[0] != at.dim:
        raise ValueError("operator dimension does not match ray")
    fv = F @ at.rep
    f = float(np.vdot(at.rep, fv).real)
    vec = -1j * (fv - f * at.rep)
    # remove roundoff-level vertical residue so the invariant holds sharply
    vec = vec - np.vdot(at.rep, vec) * at.rep
    return TangentVector(base=at, vec=vec)


@dataclass(frozen=True)
class ObservableFunction:
    """The real function ``x -> <F>_x`` induced on rays by a Hermitian F."""

    op: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "op", as_hermitian(self.op, name="op"))

    def value(self, at: Ray) -> float:
        return expectation(self.op, at.rep)

    def field(self, at: Ray) -> TangentVector:
        return hamiltonian_vector_field(self.op, at)


def _check_same_base(x: TangentVector, y: TangentVector):
    if not rays_close(x.base, y.base, tol=1e-12):
        raise ValueError("tangent vectors must sit at the same ray")


def metric_eval(scale: KahlerScale, x: TangentVector, y: TangentVector) -> float:
    """Riemannian pairing ``factor * Re <x|y>`` of two horizontal vectors."""
    _check_same_base(x, y)
    return scale.factor * float(np.vdot(x.vec, y.vec).real)


def symplectic_eval(scale: KahlerScale, x: TangentVector, y: TangentVector) -> float:
    """Symplectic pairing ``factor * Im <x|y>`` of two horizontal vectors.

    The sign is fixed so that for Hamiltonian fields, observable scale,
    ``symplectic_eval(X_F, X_G) = <-i[F, G]>`` with a plus sign.
    """
    _check_same_base(x, y)
    return scale.factor * float(np.vdot(x.vec, y.vec).imag)


def poisson_bracket(op_f, op_g, at: Ray) -> float:
    """Poisson bracket ``{f, g}`` of two expectation functions at a ray.

    Evaluated geometrically: the observable-scale symplectic pairing of the
    two Hamiltonian vector fields.  Equals ``commutator_expectation`` on the
    nose; the test suite holds the two routes together.
    """
    xf = hamiltonian_vector_field(op_f, at)
    xg = hamiltonian_vector_field(op_g, at)
    return symplectic_eval(KahlerScale.OBSERVABLE, xf, xg)


def riemannian_product(op_f, op_g, at: Ray) -> float:
    """Metric product ``(f, g)`` of two expectation functions at a ray.

    Observable-scale metric pairing of the Hamiltonian fields; equals twice
    the symmetrized covariance, and ``2 (Delta F)^2`` on the diagonal.
    """
    xf = hamiltonian_vector_field(op_f, at)
    xg = hamiltonian_vector_field(op_g, at)
    return metric_eval(KahlerScale.OBSERVABLE, xf, xg)


def derive_observable_scale_factor() -> float:
    """Re-derive the observable scale factor from the spin-1/2 oracle.

    Computes ``<-i[sz, sx]>`` at the +y ray directly from matrices, divides
    by the raw (factor-free) symplectic pairing of the two Hamiltonian
    fields, and checks the metric side gives the same number via
    ``2 x covariance``.  Returns the common ratio (2 for a correct build).
    """
    plus_y = project(np.array([1.0, 1.0j]) / math.sqrt(2.0))
    sz, sx = sigma_z(), sigma_x()
    bracket = commutator_expectation(sz, sx, plus_y.rep)
    xf = hamiltonian_vector_field(sz, plus_y)
    xg = hamiltonian_vector_field(sx, plus_y)
    raw_omega = float(np.vdot(xf.vec, xg.vec).imag)
    ratio = bracket / raw_omega
    # metric side: (f, f) must be ratio * Re<X_F|X_F> = 2 (Delta F)^2
    var = symmetrized_covariance(sz, sz, plus_y.rep)
    raw_g = float(np.vdot(xf.vec, xf.vec).real)
    metric_ratio = 2.0 * var / raw_g
    if abs(ratio - metric_ratio) > 1e-12:
        raise RuntimeError(
            f"scale factor derivation inconsistent: symplectic {ratio!r}, "
            f"metric {metric_ratio!r}"
        )
    return ratio


def flow_transport(op, x: TangentVector, t: float) -> TangentVector:
    """Push a horizontal vector along the flow of ``X_F`` for parameter ``t``.

    The flow of a Hamiltonian field is induced by the unitary
    ``exp(-i F t)``; its differential maps a horizontal vector ``v`` at
    ``rep`` to ``U v`` at ``U rep``, re-phased to the gauge-fixed
    representative of the image ray.
    """
    F = as_hermitian(op, name="op")
    moved = evolve_exact(F, x.base.rep, t)
    new_base = project(moved)
    # gauge phase applied by project(): recover it from the largest component
    k = int(np.argmax(np.abs(moved)))
    phase = new_base.rep[k] / moved[k]
    vec = phase * evolve_exact(F, x.vec, t)
    vec = vec - np.vdot(new_base.rep, vec) * new_base.rep
    return TangentVector(base=new_base, vec=vec)


def killing_residual(op, at: Ray, eps: float = 1e-3, rng=None,
                     transport: str = "flow") -> float:
    """Finite-difference Lie derivative of the metric along a Hamiltonian flow.

    Transports a random pair of horizontal vectors to parameter ``+/- eps``
    along the flow of ``X_F`` and central-differences the statistical metric
    pairings.  With ``transport="flow"`` (the honest pushforward) the flow is
    an isometry and the residual is roundoff-level, O(eps^2) at worst.  With
    ``transport="frozen"`` the vector components are naively held fixed and
    merely re-horizontalized at the moved ray - a deliberately wrong
    transport whose residual sits at the curvature scale O(eps^2) x O(1),
    many orders above the isometry's roundoff, making it the negative
    control that shows the flow result is not vacuous.

    Returns the largest |difference| / (2 eps) over the pairings (X,X),
    (X,Y), (Y,Y).
    """
    if transport not in ("flow", "frozen"):
        raise ValueError(f"unknown transport {transport!r}")
    F = as_hermitian(op, name="op")
    gen = np.random.default_rng(rng)
    x = random_horizontal(at, gen)
    y = random_horizontal(at, gen)
    values = {}
    for s in (-eps, eps):
        if transport == "flow":
            xs = flow_transport(F, x, s)
            ys = flow_transport(F, y, s)
        else:
            base_s = project(evolve_exact(F, at.rep, s))
            xs = horizontal_project(base_s, x.vec)
            ys = horizontal_project(base_s, y.vec)
        values[s] = (
            metric_eval(KahlerScale.STATISTICAL, xs, xs),
            metric_eval(KahlerScale.STATISTICAL, xs, ys),
            metric_eval(KahlerScale.STATISTICAL, ys, ys),
        )
    return max(
        abs(a - b) / (2.0 * eps) for a, b in zip(values[eps], values[-eps])
    )


def commutator_closure_residual(op_f, op_g, at: Ray, eps: float = 1e-2) -> float:
    """How far the commutator of two flows is from the bracket's own flow.

    Runs the four-step loop  G forward, F forward, G backward, F backward
    (each for parameter ``eps``, using exact unitaries) and compares the
    endpoint with the ray reached by flowing along the Hamiltonian field of
    the bracket function ``{f, g}`` - generated by the Hermitian operator
    ``-i[F, G]`` - for parameter ``eps^2``.  Returns the statistical distance
    between the two endpoints, expected O(eps^3).
    """
    F = as_hermitian(op_f, name="op_f")
    G = as_hermitian(op_g, name="op_g")
    if F.shape != G.shape or F.shape[0] != at.dim:
        raise ValueError("operator dimensions must match the ray")
    p = evolve_exact(G, at.rep, eps)
    p = evolve_exact(F, p, eps)
    p = evolve_exact(G, p, -eps)
    p = evolve_exact(F, p, -eps)
    looped = project(p)
    bracket_op = as_hermitian(-1j * (F @ G - G @ F), tol=1e-10, name="bracket")
    target = project(evolve_exact(bracket_op, at.rep, eps * eps))
    return fs_distance(looped, target)


@dataclass(frozen=True)
class UncertaintyAudit:
    """Terms of the geometric uncertainty relation at a ray.

    ``lhs`` is the product of variances; the two right-hand terms are the
    squared half Poisson bracket and the squared symmetrized covariance.
    ``slack = lhs - symplectic_term - metric_term`` is nonnegative up to
    roundoff, and zero exactly when the bound saturates.
    """

    lhs: float
    symplectic_term: float
    metric_term: float
    slack: float

    def __post_init__(self):
        if self.slack < -1e-12:
            raise ValueError(f"uncertainty slack is negative beyond roundoff: {self.slack!r}")


def uncertainty_audit(op_f, op_m, at: Ray) -> UncertaintyAudit:
    """Audit the variance-product bound for two observables at a ray.

    The metric term is computed as the squared symmetrized covariance
    (equivalently, half the observable-scale metric product squared) and the
    symplectic term as the squared half bracket, so the audit ties the
    inequality directly to the geometric pairings.
    """
    var_f = symmetrized_covariance(op_f, op_f, at.rep)
    var_m = symmetrized_covariance(op_m, op_m, at.rep)
    pb = poisson_bracket(op_f, op_m, at)
    cov = symmetrized_covariance(op_f, op_m, at.rep)
    lhs = var_f * var_m
    symplectic_term = (0.5 * pb) ** 2
    metric_term = cov**2
    return UncertaintyAudit(
        lhs=lhs,
        symplectic_term=symplectic_term,
        metric_term=metric_term,
        slack=lhs - symplectic_term - metric_term,
    )


def eigen_extrema(op) -> list[tuple[Ray, float]]:
    """Eigenrays of a Hermitian operator with their eigenvalues.

    These are the critical points of the expectation function: the
    Hamiltonian vector field vanishes exactly there, and the function's range
    over rays is the closed interval between the extreme eigenvalues.
    Results are sorted by eigenvalue, ties broken by the lexicographic order
    of the gauge-fixed representatives, making the output deterministic.
    """
    F = as_hermitian(op, name="op")
    evals, vecs = np.linalg.eigh(F)
    items = [(project(vecs[:, k]), float(evals[k])) for k in range(F.shape[0])]

    def key(item):
        ray, lam = item
        flat = []
        for c in ray.rep:
            flat.extend((c.real, c.imag))
        return (lam, tuple(flat))

    return sorted(items, key=key)
