"""Hamiltonian flow on the space of rays.

The evolution integrated here is the projective form of the Schrodinger
equation: ``d psi/dt = -i (H - <H>) psi``.  Subtracting the instantaneous
expectation removes the global-phase drift, so the trajectory lives directly
on rays; the flow preserves the statistical metric and every expectation of
``H`` itself.

``flow_integrate`` is a fixed-step classical RK4 on that (mildly nonlinear)
equation.  It renormalises after every step; the residual norm drift per
step is monitored and treated as an error, not silently repaired, when it
exceeds 1e-8.  The gauge matters only for output, so all samples are
gauge-fixed once, in one stacked call, and every tracked expectation is one
product over all samples.  The Hamiltonian and the tracked operators are
validated once, before the first step.  ``flow_vs_exact_deviation`` takes
a finished trajectory and measures it against the eigendecomposition
propagator - one ``eigh``, all sample times in one matrix product - and is
the module's convergence oracle (fourth order in the step).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hilbert import (as_hermitian, as_state, commutator_expectation, evolve_exact,
                      expectation)
from .projective import Ray, _fs_sin_cos, _gauge_fix, project

__all__ = [
    "Trajectory",
    "flow_integrate",
    "flow_vs_exact_deviation",
    "ehrenfest_residual",
    "trajectory_rows",
]


@dataclass(frozen=True)
class Trajectory:
    """Samples of one flow run.

    ``times`` (N,) is the time grid, ``reps`` a read-only (N, d) array whose
    row k is the gauge-fixed representative at ``times[k]``, and
    ``observables_tracked`` a list of ``(label, values)`` with one value per
    sample.  :attr:`points` and :attr:`final` build validated :class:`Ray`
    objects on demand.
    """

    times: np.ndarray
    reps: np.ndarray
    observables_tracked: list[tuple[str, np.ndarray]] = field(default_factory=list)

    def __post_init__(self):
        reps = np.ascontiguousarray(self.reps, dtype=np.complex128).view()
        reps.setflags(write=False)
        object.__setattr__(self, "reps", reps)
        if reps.ndim != 2 or reps.shape[0] != self.times.shape[0]:
            raise ValueError("times and reps must have equal length")
        for label, vals in self.observables_tracked:
            if vals.shape[0] != self.times.shape[0]:
                raise ValueError(f"tracked observable {label!r} has wrong length")

    @property
    def points(self) -> list[Ray]:
        return [Ray(rep=rep) for rep in self.reps]

    @property
    def final(self) -> Ray:
        return Ray(rep=self.reps[-1])


def _generator(H: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Right-hand side ``-i (H - <H>) psi`` of the projective flow."""
    hv = H @ psi
    h = np.vdot(psi, hv).real / np.vdot(psi, psi).real
    return -1j * (hv - h * psi)


def flow_integrate(hamiltonian, start, t_end: float, dt: float,
                   track=None) -> Trajectory:
    """Integrate the projective Schrodinger flow with fixed-step RK4.

    Parameters
    ----------
    hamiltonian : array_like
        Hermitian generator.
    start : Ray or array_like
        Initial state; coerced to a gauge-fixed ray.
    t_end, dt : float
        Final time and step.  The last step is shortened to land on
        ``t_end`` exactly.
    track : sequence of (str, array_like), optional
        Observables whose expectations are recorded at every sample.  They
        are validated once, before the first step.

    Returns
    -------
    Trajectory
        Samples at every accepted step.  Row 0 of ``reps`` is the start
        ray's representative bit for bit; the later rows are gauge-fixed
        together after the last step.

    Raises
    ------
    ValueError
        For a non-Hermitian or mis-sized operator, a zero or non-finite
        start state, or ``dt``/``t_end`` that are not finite and positive
        (nonnegative for ``t_end``).
    RuntimeError
        If the representative's norm drifts by more than 1e-8 in a single
        step before renormalization (or becomes NaN), which signals a step
        too large for the generator rather than roundoff; or if a step
        overflows, which signals a Hamiltonian whose scale is too large for
        floating point.  The steps run under one ``np.errstate`` that turns
        overflow and invalid operations into errors.
    """
    H = as_hermitian(hamiltonian, name="hamiltonian")
    ray0 = start if isinstance(start, Ray) else project(as_state(start, name="start"))
    if H.shape[0] != ray0.dim:
        raise ValueError("hamiltonian dimension does not match start state")
    if not (0.0 < dt < math.inf):
        raise ValueError("dt must be finite and positive")
    if not (0.0 <= t_end < math.inf):
        raise ValueError("t_end must be finite and nonnegative")
    tracked = []
    for label, op in track or ():
        F = as_hermitian(op, name=f"track[{label}]")
        if F.shape[0] != ray0.dim:
            raise ValueError(f"track[{label}] has dimension {F.shape[0]}, "
                             f"start state {ray0.dim}")
        tracked.append((str(label), F))

    times = [0.0]
    samples = [ray0.rep]
    psi = ray0.rep
    t = 0.0
    try:
        with np.errstate(over="raise", invalid="raise"):
            while t < t_end - 1e-15:
                h = min(dt, t_end - t)
                k1 = _generator(H, psi)
                k2 = _generator(H, psi + 0.5 * h * k1)
                k3 = _generator(H, psi + 0.5 * h * k2)
                k4 = _generator(H, psi + h * k3)
                psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                norm = float(np.linalg.norm(psi))
                drift = abs(norm - 1.0)
                if not drift <= 1e-8:  # NaN included
                    raise RuntimeError(
                        f"norm drift {drift:.3e} in one step at t={t + h:.6g}; "
                        "reduce dt"
                    )
                psi = psi / norm
                t += h
                times.append(t)
                samples.append(psi)
    except FloatingPointError as exc:
        raise RuntimeError(
            f"RK4 step overflows at t={t + h:.6g} ({exc}): the hamiltonian's scale "
            f"max|H| = {float(np.max(np.abs(H))):.3e} is too large for floating "
            f"point at dt={dt:g}; rescale the hamiltonian") from exc

    # the flow carries no global phase, so the gauge matters only for output
    reps = np.array(samples)
    reps[1:] = _gauge_fix(reps[1:])
    bras = reps.conj()
    norms2 = (bras * reps).sum(1).real
    values = [(label, (bras * (reps @ F.T)).sum(1).real / norms2) for label, F in tracked]
    return Trajectory(times=np.array(times), reps=reps, observables_tracked=values)


def flow_vs_exact_deviation(hamiltonian, traj: Trajectory) -> float:
    """Largest ray distance between an RK4 trajectory and the exact propagator.

    The exact states start from the trajectory's first ray and are evolved
    to every sample time at once, from one eigendecomposition of the
    Hamiltonian; each is compared with the RK4 sample by
    :func:`projqm.projective.fs_distance`'s arithmetic, on all rows at once.
    Scales as ``dt**4``.
    """
    H = as_hermitian(hamiltonian, name="hamiltonian")
    reps = traj.reps
    if H.shape[0] != reps.shape[1]:
        raise ValueError("hamiltonian dimension does not match the trajectory")
    evals, vecs = np.linalg.eigh(H)
    coeffs = vecs.conj().T @ reps[0]
    exact = (np.exp(-1j * np.outer(traj.times, evals)) * coeffs) @ vecs.T
    exact /= np.linalg.norm(exact, axis=1, keepdims=True)
    s, c = _fs_sin_cos(reps, exact)
    return float(np.max(np.arctan2(s, np.minimum(c, 1.0))))


def ehrenfest_residual(op, hamiltonian, at, eps: float = 1e-4) -> float:
    """Defect of the evolution law ``d<F>/dt = <-i[F, H]>`` at a ray.

    The time derivative is a central difference of the exactly evolved
    expectation at ``+/- eps``; the residual against the commutator
    expectation is O(eps^2) with a plain second-order stencil.
    """
    F = as_hermitian(op, name="op")
    H = as_hermitian(hamiltonian, name="hamiltonian")
    ray = at if isinstance(at, Ray) else project(as_state(at, name="at"))
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    plus = expectation(F, evolve_exact(H, ray.rep, eps))
    minus = expectation(F, evolve_exact(H, ray.rep, -eps))
    derivative = (plus - minus) / (2.0 * eps)
    return abs(derivative - commutator_expectation(F, H, ray.rep))


def trajectory_rows(traj: Trajectory) -> tuple[list[str], np.ndarray]:
    """Flatten a trajectory to a CSV-ready header and one (N, columns) array.

    Columns: time, then re/im of every representative component, then one
    column per tracked observable.
    """
    header = ["time"]
    for i in range(traj.reps.shape[1]):
        header += [f"psi{i}_re", f"psi{i}_im"]
    header += [label for label, _ in traj.observables_tracked]
    rows = np.column_stack((traj.times, traj.reps.view(np.float64),
                            *(vals for _, vals in traj.observables_tracked)))
    return header, rows
