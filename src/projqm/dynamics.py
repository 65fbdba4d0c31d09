"""Hamiltonian flow on the space of rays.

The evolution integrated here is the projective form of the Schrodinger
equation: ``d psi/dt = -i (H - <H>) psi``.  Subtracting the instantaneous
expectation removes the global-phase drift, so the trajectory lives directly
on rays; the flow preserves the statistical metric and every expectation of
``H`` itself.

``flow_integrate`` takes fixed classical RK4 steps of that (mildly
nonlinear) equation, evaluated in closed form.  The flow conserves ``<H>``,
and on its level set the generator is the linear ``-i (H - <H>(psi0))``, so
each step is one fixed polynomial in ``H``, diagonal in its eigenbasis: one
``eigh`` gives every sample, normalised, in one ``(N, d)`` product with no
loop over steps.  The norm drift of every step is checked before the
samples are formed and treated as an error, not silently repaired, when it
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

from .hilbert import _operands, as_hermitian, as_state
from .projective import Ray, _fs_sin_cos, _gauge_fix, project

__all__ = [
    "Trajectory",
    "flow_integrate",
    "flow_vs_exact_deviation",
    "expectation_rate",
    "trajectory_rows",
]


#: Most steps ``t_end / dt`` that :func:`flow_integrate` takes: 1000 times a
#: 10**5-step run, and each sample costs a row of ``dim`` complex numbers.
_MAX_STEPS = 10**8


@dataclass(frozen=True)
class Trajectory:
    """Samples of one flow run.

    ``times`` (N,) is the time grid, ``reps`` a read-only (N, d) array whose
    row k is the gauge-fixed representative at ``times[k]``, and
    ``observables_tracked`` a list of ``(label, values)`` with one value per
    sample.  :attr:`final` builds the last sample's validated :class:`Ray`
    on demand.
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
    def final(self) -> Ray:
        return Ray(rep=self.reps[-1])


def _time_grid(t_end: float, dt: float) -> np.ndarray:
    """Sample times of steps ``dt`` from 0, the last one shortened to land on
    ``t_end``.

    Each time is the one before plus the step, rounded as the loop
    ``t += min(dt, t_end - t)`` rounds it: ``np.cumsum`` adds in order.
    Only the last step can be short, and it lands on ``t_end`` exactly:
    ``t_end - t`` is exact there by Sterbenz's lemma.
    """
    full = np.cumsum(np.full(int(t_end / dt), dt))
    starts = np.concatenate(([0.0], full))[:-1]
    stop = np.flatnonzero((starts >= t_end - 1e-15) | (t_end - starts < dt))
    times = np.concatenate(([0.0], full[:stop[0]] if stop.size else full))
    tail, t = [], float(times[-1])
    while t < t_end - 1e-15:  # the short last step, or full steps int() missed
        t += min(dt, t_end - t)
        tail.append(t)
    return np.concatenate((times, tail))


def _rk4_polar(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``log|R(iy)|`` and ``arg R(iy)`` of the RK4 polynomial
    ``R(z) = 1 + z + z**2/2 + z**3/6 + z**4/24``.

    ``|R(iy)|**2 - 1 = -y**6/72 + y**8/576`` exactly, which ``log1p`` keeps
    where ``1 + y**6/72`` would round it away.
    """
    y2 = y * y
    return (0.5 * np.log1p(y2**3 * (y2 / 576.0 - 1.0 / 72.0)),
            np.arctan2(y - y * y2 / 6.0, 1.0 - y2 / 2.0 + y2 * y2 / 24.0))


def _rk4_samples(H: np.ndarray, psi0: np.ndarray, times: np.ndarray, t_end: float,
                 dt: float) -> np.ndarray:
    """Unit samples at ``times[1:]`` of RK4 steps of the flow from ``psi0``, as
    one ``(N, d)`` array, with no loop over steps.

    The flow conserves ``<H>``, so on its level set ``c0 = <H>(psi0)`` the
    generator is the linear ``-i (H - c0)`` and one RK4 step of ``h`` is the
    matrix ``R(-i h (H - c0))``, diagonal in ``H``'s eigenbasis.  With
    ``a = V^dagger psi0`` the sample after n steps of ``dt`` is ``V`` times
    ``R(i y_j)**n a_j``, ``y_j = dt (c0 - E_j)``, normalised; the short last
    step multiplies in its own ``R``.  Powers are taken in polar form,
    ``n log|R|`` and ``n arg R`` (``R**n`` rounds up to 4 times worse), and
    the moduli stay logarithms until every step has passed the drift check:
    a component that grows from 1e-20 is caught at the step where it first
    moves the norm, not where its power overflows.  An eigen-coefficient that
    is exactly zero stays zero, and its ``R`` is never evaluated.

    The check compares each sample's norm with the one before, the drift of
    one step of the map the samples are built with, and reports the first
    step that fails with that drift.  A loop of RK4 steps of the nonlinear
    generator ``-i (H - <H>)`` flags the same step: near the 1e-8 threshold
    the two drifts agree to about nine digits.  They part once a component
    has grown off the level set (under H = diag(1e5, 0) at dt 1e-3, from
    weight 3e-14: 0.2337 here, 0.2333 for the loop).
    """
    evals, vecs = np.linalg.eigh(H)
    a = vecs.conj().T @ psi0
    live = a != 0.0
    a, E, V = a[live], evals[live], vecs[:, live]
    weights = np.abs(a) ** 2
    c0 = np.dot(E, weights) / np.sum(weights)
    log_r, arg_r = _rk4_polar(dt * (c0 - E))
    n = np.arange(times.size, dtype=float)[:, None]
    logs = np.log(np.abs(a)) + n * log_r
    args = np.angle(a) + n * arg_r
    h = min(dt, t_end - times[-2])
    if h < dt:
        log_h, arg_h = _rk4_polar(h * (c0 - E))
        logs[-1], args[-1] = logs[-2] + log_h, args[-2] + arg_h

    top = np.max(logs, axis=1)
    log_norms = top + 0.5 * np.log(np.sum(np.exp(2.0 * (logs - top[:, None])), axis=1))
    drift = np.abs(np.expm1(np.diff(log_norms)))
    bad = np.flatnonzero(~(drift <= 1e-8))  # NaN included
    if bad.size:
        k = int(bad[0])
        raise RuntimeError(f"norm drift {drift[k]:.3e} in one step at "
                           f"t={times[k + 1]:.6g}; reduce dt")
    return np.exp(logs[1:] - log_norms[1:, None] + 1j * args[1:]) @ V.T


def flow_integrate(hamiltonian, start, t_end: float, dt: float,
                   track=None) -> Trajectory:
    """Integrate the projective Schrodinger flow with fixed-step RK4.

    The steps are classical RK4's, evaluated in ``H``'s eigenbasis on the
    level set of the conserved ``<H>``, where the generator is linear: every
    sample is the start's eigen-coefficients times a power of the step's
    polynomial, normalised (see :func:`_rk4_samples`).  A loop of RK4 steps
    of the nonlinear equation, renormalising after each, centres every
    stage on its own ``<H>`` instead; the two step maps differ by
    ``O((||H|| dt)**8)`` a step, so at ``||H|| dt <= 0.02`` the samples
    agree to rounding, about ``n * d * eps`` after n steps in dimension d.

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
        start state, ``dt``/``t_end`` that are not finite and positive
        (nonnegative for ``t_end``), or more than 10**8 steps
        (``t_end / dt``), checked before any array of them is allocated.
    RuntimeError
        If the representative's norm drifts by more than 1e-8 in a single
        step (or becomes NaN), which signals a step too large for the
        generator rather than roundoff: the message names the first such
        step and its drift.  Or if the step's polynomial overflows, which
        signals a Hamiltonian whose scale is too large for floating point.
        The steps are evaluated under one ``np.errstate`` that turns
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
    steps = float(t_end) / float(dt)
    if not steps <= _MAX_STEPS:  # before _time_grid allocates them
        raise ValueError(f"t_end / dt = {t_end:g} / {dt:g} = {steps:.3g} steps, "
                         f"more than the {_MAX_STEPS:.0e} allowed")
    tracked = []
    for label, op in track or ():
        F = as_hermitian(op, name=f"track[{label}]")
        if F.shape[0] != ray0.dim:
            raise ValueError(f"track[{label}] has dimension {F.shape[0]}, "
                             f"start state {ray0.dim}")
        tracked.append((str(label), F))

    times = _time_grid(t_end, dt)
    reps = np.empty((times.size, ray0.dim), dtype=np.complex128)
    reps[0] = ray0.rep
    if times.size > 1:
        try:
            with np.errstate(over="raise", invalid="raise"):
                samples = _rk4_samples(H, ray0.rep, times, t_end, dt)
        except FloatingPointError as exc:
            raise RuntimeError(
                f"RK4 step overflows ({exc}): the hamiltonian's scale "
                f"max|H| = {float(np.max(np.abs(H))):.3e} is too large for floating "
                f"point at dt={dt:g}; rescale the hamiltonian") from exc
        # the flow carries no global phase, so the gauge matters only for output
        reps[1:] = _gauge_fix(samples)
    bras = reps.conj()
    norms2 = (bras * reps).sum(1).real
    values = [(label, (bras * (reps @ F.T)).sum(1).real / norms2) for label, F in tracked]
    return Trajectory(times=times, reps=reps, observables_tracked=values)


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


def expectation_rate(op, hamiltonian, psi) -> float:
    """Time derivative ``d<F>/dt`` of the exactly evolved expectation at a state.

    Taken in ``H``'s eigenbasis with no stencil: with ``c = V^dagger psi``
    and ``F_jk = (V^dagger F V)_jk``, the expectation along
    ``exp(-iHt) psi`` is ``sum c_j* c_k F_jk exp(i (E_j - E_k) t)``, so
    ``d<F>/dt = sum c_j* c_k F_jk i (E_j - E_k)``, divided by
    ``<psi|psi>`` as in :func:`~projqm.hilbert.expectation`.  It matches
    ``<-i[F, H]>`` to rounding at any ``||H||``, where a central difference
    of the expectation at ``+/- eps`` carries an ``eps**2 f'''`` term that
    grows as ``||H||**3``.
    """
    F, H, v, nrm2 = _operands(psi, op=op, hamiltonian=hamiltonian)
    evals, vecs = np.linalg.eigh(H)
    c = vecs.conj().T @ v
    rate = 1j * (evals[:, None] - evals[None, :]) * (vecs.conj().T @ F @ vecs)
    return float(np.vdot(c, rate @ c).real) / nrm2


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
