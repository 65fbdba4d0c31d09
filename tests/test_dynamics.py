"""Unit tests for the projective flow integrator and its diagnostics."""

import math
import re
import warnings

import numpy as np
import pytest

import projqm.dynamics as dynamics
from projqm.dynamics import (Trajectory, _rk4_polar, expectation_rate, flow_integrate,
                             flow_vs_exact_deviation, trajectory_rows)
from projqm.hilbert import (as_hermitian, commutator_expectation, evolve_exact, expectation,
                            sigma_x, sigma_y, sigma_z)
from projqm.projective import Ray, fs_distance, project
from tests.conftest import random_hermitian, random_unit
from tests.test_projective import loop_project

PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)


class TestFlowIntegrate:
    def test_matches_exact_evolution(self, rng):
        h = random_hermitian(rng, 4)
        psi = random_unit(rng, 4)
        traj = flow_integrate(h, psi, 1.0, 1e-3)
        exact = project(evolve_exact(h, psi, 1.0))
        assert fs_distance(traj.final, exact) < 1e-10

    def test_samples_stay_normalized(self, rng):
        h = random_hermitian(rng, 3)
        traj = flow_integrate(h, random_unit(rng, 3), 0.5, 1e-2)
        for rep in traj.reps:
            assert abs(np.linalg.norm(rep) - 1.0) < 1e-12

    def test_time_grid(self):
        traj = flow_integrate(sigma_z(), PLUS, 0.1, 0.025)
        assert np.allclose(traj.times, [0.0, 0.025, 0.05, 0.075, 0.1])

    def test_zero_duration(self):
        traj = flow_integrate(sigma_z(), PLUS, 0.0, 1e-3)
        assert traj.times.shape == (1,)
        assert fs_distance(traj.final, project(PLUS)) < 1e-12

    def test_tracked_observables(self):
        traj = flow_integrate(sigma_z(), PLUS, np.pi, 1e-3,
                              track=[("x", sigma_x()), ("y", sigma_y())])
        labels = [label for label, _ in traj.observables_tracked]
        assert labels == ["x", "y"]
        (_, xs), (_, ys) = traj.observables_tracked
        # spin precession: <x> = cos(2t), <y> = sin(2t)
        assert np.max(np.abs(xs - np.cos(2.0 * traj.times))) < 1e-8
        assert np.max(np.abs(ys - np.sin(2.0 * traj.times))) < 1e-8

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            flow_integrate(sigma_z(), PLUS, 1.0, 0.0)
        with pytest.raises(ValueError):
            flow_integrate(sigma_z(), PLUS, -1.0, 1e-3)

    @pytest.mark.parametrize("t_end, dt", [(np.inf, 1e-3), (np.nan, 1e-3),
                                           (1.0, np.inf), (1.0, np.nan), (1e308, 1e-3)])
    def test_rejects_non_finite_times(self, t_end, dt):
        with pytest.raises(ValueError):
            flow_integrate(sigma_z(), PLUS, t_end, dt)

    @pytest.mark.parametrize("t_end, dt", [(1e300, 1e-3), (1e6, 1e-3), (100000.1, 1e-3),
                                           (1.0, 1e-320)])
    def test_rejects_more_steps_than_the_cap_before_allocating(self, monkeypatch, t_end, dt):
        """A count above 10**8 names both inputs and the count, and no sample
        grid is built: only counts the guard rejects are run here."""
        def unreachable(*args):
            raise AssertionError("the time grid was built")

        monkeypatch.setattr(dynamics, "_time_grid", unreachable)
        with pytest.raises(ValueError, match=r"t_end / dt = .* steps, more than the 1e\+08"):
            flow_integrate(sigma_z(), PLUS, t_end, dt)

    def test_rejects_mis_sized_tracked_operator_before_stepping(self):
        with pytest.raises(ValueError, match="track"):
            flow_integrate(sigma_z(), PLUS, 1.0, 1e-3,
                           track=[("x", sigma_x()), ("big", np.eye(3))])

    def test_norm_drift_aborts(self):
        with pytest.raises(RuntimeError, match="norm drift"):
            flow_integrate(sigma_z(), PLUS, 2.0 * np.pi, 0.5)

    @pytest.mark.parametrize("start", [(1e-20, 1.0), (1e-6, 1.0)])
    def test_drift_abort_names_the_loops_step(self, start):
        """Under H = diag(1e5, 0) at dt = 1e-3 a populated excited component
        grows by |R| = 4.2e6 a step: from 1e-20 it first moves the norm at
        the third step, from 1e-6 at the first.  The abort names the step
        the step-by-step loop names, with the drift of its own step map,
        finite: it does not overflow."""
        h = np.diag([1e5, 0.0])
        pattern = r"norm drift (\S+) in one step at (t=\S+);"
        with pytest.raises(RuntimeError, match=pattern) as loop:
            loop_flow_integrate(h, np.array(start), 1.0, 1e-3, [])
        with pytest.raises(RuntimeError, match=pattern) as closed:
            flow_integrate(h, np.array(start), 1.0, 1e-3)
        drift, step = re.search(pattern, str(closed.value)).groups()
        assert step == re.search(pattern, str(loop.value)).group(2)
        assert 1e-8 < float(drift) < math.inf

    def test_unpopulated_component_never_drifts(self):
        """The same Hamiltonian with the excited component exactly zero: it
        stays zero, and the run reaches t_end as the loop's does."""
        h, start = np.diag([1e5, 0.0]), np.array([0.0, 1.0])
        traj = flow_integrate(h, start, 1.0, 1e-3)
        times, points, _ = loop_flow_integrate(h, start, 1.0, 1e-3, [])
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.reps, [ray.rep for ray in points])

    def test_overflow_aborts_naming_the_scale(self):
        """A finite but huge Hamiltonian overflows the step at any usable dt: one
        RuntimeError, no RuntimeWarning, and numpy's error state restored."""
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match=r"overflows.*max\|H\| = 1\.000e\+300"):
                flow_integrate(np.diag([1e300, -1e300]), PLUS, 1.0, 1e-3)
        assert np.geterr() == before

    def test_constant_added_to_the_hamiltonian_changes_nothing(self, rng):
        """The flow subtracts <H>, so H + 50 I gives the same rays.  Steps
        centred on zero instead of on <H>(psi0) would not: their RK4 phase
        error grows as (50 dt)**5."""
        h = random_hermitian(rng, 3)
        psi = random_unit(rng, 3)
        t1 = flow_integrate(h, psi, 0.5, 1e-3)
        t2 = flow_integrate(h + 50.0 * np.eye(3), psi, 0.5, 1e-3)
        assert np.max(np.abs(t1.reps - t2.reps)) < 1e-12

    def test_global_phase_of_start_is_irrelevant(self, rng):
        h = random_hermitian(rng, 3)
        psi = random_unit(rng, 3)
        t1 = flow_integrate(h, psi, 0.4, 1e-3)
        t2 = flow_integrate(h, np.exp(1.3j) * psi, 0.4, 1e-3)
        assert fs_distance(t1.final, t2.final) < 1e-12


def _generator(H: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Right-hand side ``-i (H - <H>) psi`` of the projective flow."""
    hv = H @ psi
    h = np.vdot(psi, hv).real / np.vdot(psi, psi).real
    return -1j * (hv - h * psi)


def loop_flow_integrate(hamiltonian, start, t_end, dt, track):
    """The integrator as a loop of RK4 steps of ``_generator``, each followed by
    the norm-drift check, the loop form of ``project`` and a validating
    ``expectation`` of every tracked operator, as ``flow_integrate`` ran
    before it evaluated the steps in closed form; kept as the reference its
    output and its drift abort must match."""
    H = as_hermitian(hamiltonian)
    ray0 = Ray(rep=loop_project(start))
    tracked = [(label, as_hermitian(op)) for label, op in track]
    times, points = [0.0], [ray0]
    values = {label: [expectation(op, ray0.rep)] for label, op in tracked}
    psi = ray0.rep.copy()
    t = 0.0
    while t < t_end - 1e-15:
        h = min(dt, t_end - t)
        k1 = _generator(H, psi)
        k2 = _generator(H, psi + 0.5 * h * k1)
        k3 = _generator(H, psi + 0.5 * h * k2)
        k4 = _generator(H, psi + h * k3)
        psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        drift = abs(float(np.linalg.norm(psi)) - 1.0)
        if not drift <= 1e-8:
            raise RuntimeError(f"norm drift {drift:.3e} in one step at t={t + h:.6g}; "
                               "reduce dt")
        ray = Ray(rep=loop_project(psi))
        psi = ray.rep.copy()
        t += h
        times.append(t)
        points.append(ray)
        for label, op in tracked:
            values[label].append(expectation(op, psi))
    return times, points, values


def test_rk4_polar_is_the_rk4_polynomial():
    """``log|R(iy)|`` and ``arg R(iy)`` against ``R`` evaluated in complex
    arithmetic, and ``log|R|`` against its leading term ``-y**6/144`` where
    ``1 + ...`` rounds that term away."""
    y = np.array([-3.0, -1.0, -0.3, 0.1, 0.5, 1.0, 2.0, 2.8])
    z = 1j * y
    r = 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0
    log_r, arg_r = _rk4_polar(y)
    assert np.allclose(log_r, np.log(np.abs(r)), rtol=1e-13, atol=1e-15)
    assert np.allclose(arg_r, np.angle(r), rtol=1e-14, atol=0.0)
    small = np.array([1e-3, -2e-4])
    assert np.allclose(_rk4_polar(small)[0], -small**6 / 144.0, rtol=1e-6, atol=0.0)


def _herm(rng, d):
    """Random Hermitian matrix of spectral norm 1."""
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (m + m.conj().T) / 2.0
    return h / np.linalg.norm(h, 2)


@pytest.mark.parametrize("case", [2, 3, 5, 8, "leading_zero", "long"])
def test_trajectory_matches_loop_reference_to_rounding(case):
    """The integrator agrees with the per-step gauge-fixed loop reference to
    a rounding bound.

    Both forms take RK4 steps of the same flow from states that differ only
    by a global phase and by rounding.  The loop centres each stage on its
    own ``<H>``, the closed form on ``<H>(psi0)``; the two step maps differ
    by ``O((||H|| dt)**8)`` a step, far below rounding at ``||H|| dt = 1e-3``
    (measured at d = 2, 40 steps of 0.05: 1.2e-13; 20 steps of 0.1:
    1.5e-11).  Each step rounds a few componentwise
    products (at most eps each, relative) and a few length-d sums (at most
    d*eps/2 each), so with ``||H|| dt <= 1`` the two unit vectors part by
    at most about ``d*eps`` per step, modulo the phase.  The flow preserves
    ray distances, so these parts add up at most linearly: ``n*d*eps``
    after n steps.  Gauge fixing divides by the leading component c, which
    magnifies a difference by at most ``1 + 2/|c|``; an expectation of an
    operator of norm 1 moves by at most twice the difference of the states
    plus ``d*eps`` for its own product.  Measured at 500 steps, d <= 8: both
    differences stay below 2e-15, under 0.4% of their bounds; at the 20,000
    steps of the long case, d = 2: 6.8e-14 and 5.8e-15, under 0.04%.
    """
    rng = np.random.default_rng(20261018)
    if case == "leading_zero":  # component 0 stays zero: the gauge fixes component 1
        dim = 3
        h = np.zeros((3, 3), dtype=np.complex128)
        h[0, 0] = 0.5
        h[1:, 1:] = [[1.0, 0.3 - 0.2j], [0.3 + 0.2j, -0.4]]
        start = np.array([0.0, 0.6, 0.8j])
        track = [("z", np.diag([1.0, 0.0, -1.0]))]
    else:
        dim = 2 if case == "long" else case
        h = _herm(rng, dim)
        start = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        track = [("f", _herm(rng, dim)), ("g", 1e-14j * np.eye(dim) + _herm(rng, dim))]
    t_end, dt = (20.0 if case == "long" else 0.5), 1e-3
    traj = flow_integrate(h, start, t_end, dt, track=track)
    times, points, values = loop_flow_integrate(h, start, t_end, dt, track)
    assert np.array_equal(traj.times, times)
    reference = np.array([r.rep for r in points])
    lead = np.argmax(np.abs(reference[0]) > 1e-12)
    n_steps = len(times) - 1
    apart = n_steps * dim * np.finfo(float).eps
    gauge = 1.0 + 2.0 / np.min(np.abs(reference[:, lead]))
    assert np.max(np.abs(traj.reps - reference)) <= gauge * apart
    for label, vals in traj.observables_tracked:
        assert np.max(np.abs(vals - values[label])) <= (2.0 * apart
                                                        + dim * np.finfo(float).eps)


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_first_sample_is_the_projected_start_bit_for_bit(rng, dim):
    # re-gauging a gauge-fixed row moves its last bit for about one start in five
    h = random_hermitian(rng, dim)
    for _ in range(20):
        start = 3.0 * random_unit(rng, dim)
        traj = flow_integrate(h, start, 2e-2, 1e-2)
        assert np.array_equal(traj.reps[0], project(start).rep)


def test_reps_are_validated_rays(rng):
    traj = flow_integrate(random_hermitian(rng, 4), random_unit(rng, 4), 0.03, 1e-2,
                          track=[("f", random_hermitian(rng, 4))])
    assert traj.reps.shape[0] == traj.times.size == 4
    for rep in traj.reps:
        Ray(rep=rep)  # validates the norm and the gauge
    assert np.array_equal(traj.final.rep, traj.reps[-1])
    assert not traj.reps.flags.writeable
    with pytest.raises(ValueError, match="gauge"):
        Trajectory(times=traj.times, reps=-traj.reps).final


class TestOrderOfAccuracy:
    def test_integrator_is_fourth_order(self, rng):
        h = random_hermitian(rng, 4)
        psi = random_unit(rng, 4)
        devs = [flow_vs_exact_deviation(h, flow_integrate(h, psi, 1.0, dt))
                for dt in (4e-2, 2e-2, 1e-2)]
        orders = [np.log2(devs[i] / devs[i + 1]) for i in range(2)]
        assert min(orders) > 3.8

    @pytest.mark.parametrize("dim, t_end, dt", [(2, 2.0, 1e-3), (3, 1.0, 2e-3),
                                                (5, 1.0, 1e-2), (8, 0.5, 2e-3)])
    def test_deviation_matches_per_sample_exact_evolution(self, rng, dim, t_end, dt):
        h = random_hermitian(rng, dim)
        traj = flow_integrate(h, random_unit(rng, dim), t_end, dt)
        per_sample = max(fs_distance(Ray(rep=rep),
                                     project(evolve_exact(h, traj.reps[0], float(t))))
                         for t, rep in zip(traj.times, traj.reps))
        assert abs(flow_vs_exact_deviation(h, traj) - per_sample) <= 1e-15

    def test_deviation_small_at_fine_step(self):
        dev = flow_vs_exact_deviation(sigma_z(),
                                      flow_integrate(sigma_z(), PLUS, 1.5, 1e-3))
        assert dev < 1e-12


def ehrenfest_residual(op, hamiltonian, at: Ray, eps: float) -> float:
    """Defect of the evolution law ``d<F>/dt = <-i[F, H]>`` at a ray.

    The time derivative is a central difference of the exactly evolved
    expectation at ``+/- eps``; the residual against the commutator
    expectation is O(eps^2) with a plain second-order stencil.
    """
    F = as_hermitian(op, name="op")
    H = as_hermitian(hamiltonian, name="hamiltonian")
    plus = expectation(F, evolve_exact(H, at.rep, eps))
    minus = expectation(F, evolve_exact(H, at.rep, -eps))
    derivative = (plus - minus) / (2.0 * eps)
    return abs(derivative - commutator_expectation(F, H, at.rep))


class TestEhrenfestResidual:
    def test_residual_shrinks_quadratically(self, rng):
        h = random_hermitian(rng, 3)
        f = random_hermitian(rng, 3)
        at = project(random_unit(rng, 3))
        r_coarse = ehrenfest_residual(f, h, at, eps=1e-2)
        r_fine = ehrenfest_residual(f, h, at, eps=1e-3)
        order = np.log10(r_coarse / r_fine)
        assert order > 1.9

    def test_conserved_energy_gives_tiny_residual(self, rng):
        h = random_hermitian(rng, 3)
        at = project(random_unit(rng, 3))
        assert ehrenfest_residual(h, h, at, eps=1e-3) < 1e-12


class TestExpectationRate:
    @pytest.mark.parametrize("norm", [1.0, 5.0, 20.0, 100.0])
    @pytest.mark.parametrize("dim", [2, 8])
    def test_matches_commutator_expectation_at_any_scale(self, rng, dim, norm):
        """Both sides are sums of d**2 products bounded by ``||F|| ||H||``, so
        they agree to a few ``d * eps * ||F|| ||H||``: at most 1.0 (dim 2)
        and 0.41 (dim 8) of it here, 7.1e-14 at norm 100.  On the same draws
        the central difference at eps = 1e-4 reads 8.9e-8 to 3.9e-3 from
        norm 5 up."""
        bound = 4.0 * dim * np.finfo(float).eps * norm
        for _ in range(10):
            h = norm * random_hermitian(rng, dim)
            f = random_hermitian(rng, dim)
            psi = random_unit(rng, dim)
            rate = expectation_rate(f, h, psi)
            assert abs(rate - commutator_expectation(f, h, psi)) <= bound

    @pytest.mark.parametrize("a, b", [(0.3, 0.4), (1.1, -2.0), (0.7, np.pi / 2)])
    def test_spin_precession_rate(self, a, b):
        """Under sigma_z, <sigma_x> from (cos a, e^{ib} sin a) is
        sin(2a) cos(b + 2t), whose rate at t = 0 is -2 sin(2a) sin(b)."""
        psi = np.array([np.cos(a), np.exp(1j * b) * np.sin(a)])
        rate = expectation_rate(sigma_x(), 50.0 * sigma_z(), 3.0 * psi)
        assert abs(rate + 100.0 * np.sin(2.0 * a) * np.sin(b)) <= 1e-12

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            expectation_rate(sigma_x(), np.eye(3), PLUS)
        with pytest.raises(ValueError, match="dimension mismatch"):
            expectation_rate(sigma_x(), sigma_z(), np.ones(3))


class TestTrajectoryRows:
    def test_header_and_shape(self):
        traj = flow_integrate(sigma_z(), PLUS, 0.01, 5e-3,
                              track=[("x", sigma_x())])
        header, rows = trajectory_rows(traj)
        assert header[0] == "time"
        assert header[-1] == "x"
        assert len(rows) == 3
        assert all(len(row) == len(header) for row in rows)

    def test_row_reconstructs_state(self):
        traj = flow_integrate(sigma_z(), PLUS, 0.02, 1e-2)
        header, rows = trajectory_rows(traj)
        re0 = header.index("psi0_re")
        im0 = header.index("psi0_im")
        last = rows[-1]
        rebuilt = np.array([complex(last[re0], last[im0]),
                            complex(last[re0 + 2], last[im0 + 2])])
        assert fs_distance(project(rebuilt), traj.final) < 1e-12


def test_trajectory_validates_lengths():
    with pytest.raises(ValueError, match="equal length"):
        Trajectory(times=np.array([0.0, 1.0]), reps=project(PLUS).rep[None, :])
