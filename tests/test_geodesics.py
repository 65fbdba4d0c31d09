"""Unit tests for affine charts, the chart metric, and geodesic integration."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings

import projqm.geodesics as geodesics
from projqm.cli import main
from projqm.geodesics import (ChartPoint, integrate_geodesic, integrated_pair_distances,
                              lie_derivative_normal, ray_to_chart,
                              total_geodesy_certificate)
from projqm.projective import SpannedSphere, _membership_rows, fs_distance, project
from tests.conftest import random_unit, unit_vectors


def chart_to_ray(point: ChartPoint):
    """The ray of a chart point, 1 in its base slot: the inverse of ``ray_to_chart``."""
    return project(np.insert(point.coords, point.base_index, 1.0))


def fs_metric(point: ChartPoint) -> np.ndarray:
    """Statistical chart metric at a chart point, on interleaved real coordinates."""
    return geodesics._metric_real_batch(point.reals)


class TestChartRoundtrip:
    @given(unit_vectors(min_dim=2, max_dim=5))
    @settings(max_examples=60, deadline=None)
    def test_ray_chart_ray(self, psi):
        ray = project(psi)
        pt = ray_to_chart(ray)
        back = chart_to_ray(pt)
        assert fs_distance(ray, back) < 1e-12

    def test_base_is_largest_component(self):
        pt = ray_to_chart(project(np.array([0.1, 0.9, 0.3])))
        assert pt.base_index == 1
        assert pt.dim == 3

    def test_chart_point_validation(self):
        with pytest.raises(ValueError):
            ChartPoint(base_index=0, coords=np.array([np.nan + 0j]))

    def test_interleaved_reals(self):
        pt = ChartPoint(base_index=0, coords=np.array([1.0 + 2.0j, 3.0 - 4.0j]))
        assert np.allclose(pt.reals, [1.0, 2.0, 3.0, -4.0])


class TestChartMetric:
    def test_identity_at_origin(self):
        pt = ChartPoint(base_index=0, coords=np.zeros(2, dtype=np.complex128))
        assert np.max(np.abs(fs_metric(pt) - np.eye(4))) < 1e-14

    def test_known_value_on_the_axis(self):
        pt = ChartPoint(base_index=0, coords=np.array([1.0 + 0.0j]))
        assert np.max(np.abs(fs_metric(pt) - 0.25 * np.eye(2))) < 1e-14

    def test_hessian_of_half_squared_distance_is_the_metric(self, rng):
        """Independent oracle: g_ij(x0) = d^2/dxi dxj [d(x0, x)^2 / 2] at x0."""
        coords = 0.4 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        pt = ChartPoint(base_index=0, coords=coords)
        base_ray = chart_to_ray(pt)
        n = 2 * coords.size
        h = 1e-4
        reals = pt.reals

        def half_d2(delta):
            shifted = reals + delta
            moved = ChartPoint(
                base_index=pt.base_index,
                coords=shifted[0::2] + 1j * shifted[1::2])
            return 0.5 * fs_distance(base_ray, chart_to_ray(moved)) ** 2

        hess = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                for si in (-1.0, 1.0):
                    for sj in (-1.0, 1.0):
                        delta = np.zeros(n)
                        delta[i] += si * h
                        delta[j] += sj * h
                        hess[i, j] += si * sj * half_d2(delta)
        hess /= 4.0 * h * h
        assert np.max(np.abs(hess - fs_metric(pt))) < 1e-6


class TestInducedSphereMetric:
    def test_on_slice_block(self):
        pt = ChartPoint(base_index=0,
                        coords=np.array([0.3 + 0.4j, 0.0 + 0.0j]))
        block = geodesics._induced_block(pt.reals)
        # induced block equals the CP^1 chart metric of the slice coordinate
        slice_pt = ChartPoint(base_index=0, coords=np.array([0.3 + 0.4j]))
        assert np.max(np.abs(block - fs_metric(slice_pt))) < 1e-12

    def test_block_coefficient_has_squared_denominator(self):
        """On and off the slice, g_u1u1 = (1 + |t2|^2) / (1 + |t|^2)^2."""
        for t2 in (0.0, 0.1j, 0.3 - 0.2j, 0.5j):
            for u1 in (-0.8, -0.3, 0.0, 0.4, 0.9):
                for v1 in (-0.8, 0.0, 0.9):
                    t = np.array([u1 + 1j * v1, t2])
                    g = fs_metric(ChartPoint(base_index=0, coords=t))[0, 0]
                    s = 1.0 + float(np.sum(np.abs(t) ** 2))
                    assert abs(g - (1.0 + abs(t2) ** 2) / s**2) < 1e-15


class TestLieDerivative:
    def test_flat_along_slice_normals(self):
        for u1 in (-0.5, 0.2, 1.0):
            for v1 in (-0.3, 0.7):
                pt = ChartPoint(base_index=0,
                                coords=np.array([u1 + 1j * v1, 0.0 + 0.0j]))
                for normal in ("u2", "v2"):
                    lie = lie_derivative_normal(pt, normal)
                    assert np.max(np.abs(lie)) < 1e-6

    def test_off_slice_control_is_nonzero(self):
        pt = ChartPoint(base_index=0,
                        coords=np.array([0.0 + 0.0j, 0.0 + 0.1j]))
        lie = lie_derivative_normal(pt, "v2")
        assert np.max(np.abs(lie)) > 1e-2

    def test_on_axis_value(self):
        """On the u1 = v1 = 0 axis, |L_v2 g_u1u1| = 2 v2 / (1 + v2^2)^2."""
        for v2 in (0.05, 0.1, 0.25):
            pt = ChartPoint(base_index=0, coords=np.array([0.0, 1j * v2]))
            lie = abs(lie_derivative_normal(pt, "v2")[0, 0])
            expected = 2.0 * v2 / (1.0 + v2**2) ** 2
            assert abs(lie - expected) < 1e-6 * expected


def fd_acceleration(point: ChartPoint, v: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Oracle: ``-Gamma^k_ij v^i v^j`` from central differences of the chart metric.

    ``v`` and the result are interleaved real chart components; the
    Christoffel symbols are ``1/2 g^kl (d_i g_lj + d_j g_li - d_l g_ij)``.
    """
    x = point.reals
    n = x.size

    def metric(shift):
        y = x + shift
        return fs_metric(ChartPoint(base_index=point.base_index,
                                    coords=y[0::2] + 1j * y[1::2]))

    dg = np.array([(metric(h * e) - metric(-h * e)) / (2.0 * h) for e in np.eye(n)])
    lowered = np.transpose(dg, (1, 0, 2)) + np.transpose(dg, (1, 2, 0)) - dg
    gamma = 0.5 * np.einsum("kl,lij->kij", np.linalg.inv(metric(0.0)), lowered)
    return -np.einsum("kij,i,j->k", gamma, v, v)


def real_geodesic_rhs(_, x):
    """The chart geodesic equation ``t'' = 2 (conj(t).t') t' / (1 + |t|^2)`` in
    real form, on ``x = (Re t, Im t, Re t', Im t')``: scipy's oracle right-hand side."""
    m = x.size // 4
    u, v, p, q = x[:m], x[m:2 * m], x[2 * m:3 * m], x[3 * m:]
    s = 1.0 + u @ u + v @ v
    re, im = u @ p + v @ q, u @ q - v @ p  # conj(t).t'
    return np.concatenate((p, q, 2.0 * (re * p - im * q) / s, 2.0 * (re * q + im * p) / s))


def real_state(t, w):
    return np.concatenate((np.real(t), np.imag(t), np.real(w), np.imag(w)))


def complex_states(x):
    """Stacked complex states ``t + t'`` (rows) from real states (columns)."""
    m = x.shape[0] // 4
    return np.vstack((x[:m] + 1j * x[m:2 * m], x[2 * m:3 * m] + 1j * x[3 * m:])).T


def march_rows(base, t, w, length, dt):
    """Arclengths and stacked states ``t + t'`` of :func:`geodesics._march`."""
    arcl, bases, ts, ws = zip(*geodesics._march(base, t, w, length, dt))
    return np.array(arcl), np.array(bases), np.hstack((np.array(ts), np.array(ws)))


class TestDop853Engine:
    """The fixed DOP853 step of :func:`geodesics._march` against scipy and the
    closed form.  ``RECHART_THRESHOLD`` is lifted where a test needs the
    whole path in one chart."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7, 8])
    def test_matches_scipy_dop853_inside_one_chart(self, rng, dim, monkeypatch):
        """The engine at h = 0.05 tracks scipy's adaptive DOP853 within a bound
        fixed before comparing.

        Three parts, from the truncation argument for an order-8 method:

        - the engine's own error.  Its leading term is ``C h**8``, so the run
          at h/2 is 256 times closer, and ``|y_h - y_{h/2}|`` is 255/256 of
          the error at h; twice that difference bounds it with room for the
          ``h**9`` term;
        - scipy's error.  Each accepted step keeps its local error within
          ``atol + rtol |y|``; over its steps (``nfev / 12``) they add at most
          linearly;
        - rounding: ``n_steps * m * eps * max|y|``.

        The start has |t| = 0.1 and the length is 1, so the path stays within
        distance 1.1 of the chart origin, where |t| < 2.
        """
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        monkeypatch.setattr(geodesics, "RECHART_THRESHOLD", math.inf)
        m, length, h = dim - 1, 1.0, 0.05
        t = 0.1 * random_unit(rng, m)
        w = random_unit(rng, m)
        w = w / math.sqrt(float(geodesics._speed2(t, w)))
        arcl, _, ours = march_rows(0, t, w, length, h)
        half = march_rows(0, t, w, length, h / 2)[2][::2]
        sol = solve_ivp(real_geodesic_rhs, (0.0, length), real_state(t, w), method="DOP853",
                        rtol=1e-13, atol=1e-15, t_eval=arcl)
        assert sol.success
        oracle = complex_states(sol.y)
        size = np.abs(oracle).max()
        bound = (2.0 * np.abs(ours - half).max()
                 + sol.nfev / 12 * (1e-15 + 1e-13 * size)
                 + (len(arcl) - 1) * m * np.finfo(float).eps * size)
        assert np.abs(ours - oracle).max() <= bound

    def test_eighth_order_against_the_closed_form(self, monkeypatch):
        """From the origin at unit speed the chart path is ``t = tan(s) w0``.
        Each halving of h shrinks the error by at least 2**7 (2**8 in theory)
        while the error is above rounding, ``n_steps * eps * max|y|``."""
        monkeypatch.setattr(geodesics, "RECHART_THRESHOLD", math.inf)
        rng = np.random.default_rng(3)
        w0 = random_unit(rng, 3)
        errors = []
        for h in (0.2, 0.1, 0.05, 0.025, 0.0125):
            arcl, _, y = march_rows(0, np.zeros(3), w0, 1.0, h)
            tan, sec2 = np.tan(arcl)[:, None], 1.0 / np.cos(arcl)[:, None] ** 2
            exact = np.hstack((tan * w0, sec2 * w0))  # t and t'
            floor = (len(arcl) - 1) * np.finfo(float).eps * np.abs(exact).max()
            errors.append(float(np.abs(y - exact).max()))
            if errors[-1] <= floor:
                break
        else:
            pytest.fail(f"the error never reached rounding: {errors}")
        assert len(errors) >= 3  # at least two halvings above rounding
        for coarse, fine in zip(errors[:-2], errors[1:-1]):
            assert coarse / fine >= 2.0**7, errors

    @pytest.mark.parametrize("dim", [3, 5, 8])
    def test_offslice_residual_between_steps_is_the_step_maximum(self, rng, dim):
        """Sampled every 5e-3 inside each step - scipy's dense output, started
        from the step's state in the step's chart - a shot aimed at b leaves
        its superposition sphere by no more than at the step samples, to
        within 1e-14: the certificate needs no dense output of its own."""
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        a, b = project(random_unit(rng, dim)), project(random_unit(rng, dim))
        e0, e1, cos_d, sin_d, _ = geodesics._aligned_frame(a, b)
        sphere = SpannedSphere(rep0=e0, rep1=e1)
        chart = ray_to_chart(a)
        k, keep = chart.base_index, np.arange(dim) != chart.base_index
        w0 = (e1[keep] * e0[k] - e0[keep] * e1[k]) / e0[k] ** 2  # aim chi = 0, as _shoot
        w0 = w0 / math.sqrt(float(geodesics._speed2(chart.coords, w0)))
        length = math.atan2(sin_d, cos_d) + 0.15
        arcl, bases, y = march_rows(k, chart.coords, w0, length, 0.05)
        m = dim - 1

        def membership(base, t):
            return _membership_rows(geodesics._homogeneous(base, t), sphere)

        at_steps = membership(bases, y[:, :m])
        between = []
        for i in range(len(arcl) - 1):
            sol = solve_ivp(real_geodesic_rhs, (arcl[i], arcl[i + 1]),
                            real_state(y[i, :m], y[i, m:]), method="DOP853",
                            rtol=1e-13, atol=1e-15, dense_output=True)
            ss = np.arange(arcl[i], arcl[i + 1], 5e-3)
            dense = complex_states(sol.sol(ss))
            between.append(membership(np.full(ss.size, bases[i]), dense[:, :m]))
        between = np.concatenate(between)
        assert between.size >= 10 * (len(arcl) - 2)
        assert np.max(between) <= np.max(at_steps) + 1e-14


class TestMarch:
    """Engine properties, checked on :func:`geodesics._march` itself."""

    @staticmethod
    def _rows(base, t, w, length, dt=1e-3):
        arcl, bases, ts, ws = zip(*geodesics._march(base, t, w, length, dt))
        return np.array(arcl), np.array(bases), np.array(ts), np.array(ws)

    @staticmethod
    def _rays(bases, ts):
        return [chart_to_ray(ChartPoint(base_index=int(k), coords=t)) for k, t in zip(bases, ts)]

    def test_great_circle_length(self):
        """From the origin at unit speed the path reaches the orthogonal ray at
        pi/2 and comes home at pi, each sample at distance min(s, pi - s)."""
        start, e1 = project(np.array([1.0, 0.0])), project(np.array([0.0, 1.0]))
        arcl, bases, ts, _ = self._rows(0, [0j], [1 + 0j], math.pi / 2.0)
        assert arcl[-1] == math.pi / 2.0
        assert fs_distance(self._rays(bases[-1:], ts[-1:])[0], e1) < 1e-8
        arcl, bases, ts, _ = self._rows(0, [0j], [1 + 0j], math.pi)
        rays = self._rays(bases, ts)
        assert arcl[-1] == math.pi
        assert fs_distance(rays[-1], start) < 1e-7
        dist = np.array([fs_distance(start, r) for r in rays])
        assert np.max(np.abs(dist - np.minimum(arcl, math.pi - arcl))) < 1e-7

    def test_rechart_threshold_does_not_change_the_path(self, monkeypatch):
        t, w = [0.1 + 0.05j, -0.2j], [0.8 + 0.1j, 0.3 - 0.4j]
        eager = self._rows(0, t, w, 1.4)
        monkeypatch.setattr(geodesics, "RECHART_THRESHOLD", 10.0)
        lazy = self._rows(0, t, w, 1.4)
        # the paths switch charts at different steps, and pass the same rays
        assert list(eager[1]) != list(lazy[1])
        assert list(eager[0]) == list(lazy[0])
        gaps = [fs_distance(a, b) for a, b in zip(self._rays(*eager[1:3]),
                                                  self._rays(*lazy[1:3]))]
        assert max(gaps) < 1e-8

    def test_metric_factor_scales_lengths_not_paths(self):
        """A metric factor c**2 scales arclength by c and leaves the paths: the
        acceleration is quadratic in the velocity, so marching velocity c w
        for length L with step h passes, sample for sample, the points of
        velocity w for length c L with step c h."""
        c = math.sqrt(2.0)
        unit = self._rows(1, [0.2 - 0.1j, 0.3j], [0.6 + 0.0j, -0.2 + 0.5j], 0.5 * c, 1e-3 * c)
        fast = self._rows(1, [0.2 - 0.1j, 0.3j], [0.6 * c, (-0.2 + 0.5j) * c], 0.5, 1e-3)
        assert len(unit[0]) == len(fast[0])
        assert list(unit[1]) == list(fast[1])
        assert np.max(np.abs(unit[2] - fast[2])) < 1e-12
        assert np.max(np.abs(unit[3] * c - fast[3])) < 1e-12


class TestRechart:
    """The contract of :func:`geodesics._rechart` on the stacked state ``t + t'``."""

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_below_the_threshold_the_state_is_unchanged(self, rng, m):
        moduli = rng.uniform(0.0, geodesics.RECHART_THRESHOLD, 2 * m)
        y = (moduli * np.exp(2j * math.pi * rng.random(2 * m))).tolist()
        copy = list(y)
        assert geodesics._rechart(3, y) == (3, y)
        assert y == copy

    @pytest.mark.parametrize("m", [1, 2, 5, 7])
    def test_a_switch_puts_every_coordinate_inside_the_unit_disc(self, rng, m):
        for _ in range(20):
            t = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            t[rng.integers(m)] = 2.5 * np.exp(2j * math.pi * rng.random())
            w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            y = t.tolist() + w.tolist()
            copy = list(y)
            base, out = geodesics._rechart(0, y)
            assert y == copy
            assert base != 0 and len(out) == 2 * m
            assert max(abs(x) for x in out[:m]) <= 1.0
            # the same ray, and the same velocity: a short step along zdot in
            # the old chart moves the new chart's coordinates by eps * w_new
            z, zdot, eps = np.insert(t, 0, 1.0), np.insert(w, 0, 0.0), 1e-7
            assert np.max(np.abs(np.delete(z / z[base], base) - out[:m])) < 1e-15
            moved = (z + eps * zdot) / (z[base] + eps * zdot[base])
            w_fd = (np.delete(moved, base) - out[:m]) / eps
            assert np.max(np.abs(w_fd - out[m:])) < 1e-6 * max(1.0, max(map(abs, out[m:])))

    def test_one_coordinate_flips_to_the_reciprocal(self):
        t, w = 2.5 - 1.0j, 0.3 + 0.7j
        base, (t_new, w_new) = geodesics._rechart(0, [t, w])
        assert base == 1
        assert t_new == 1.0 / t
        assert abs(w_new - (-w / t**2)) < 1e-15


class TestClosedFormConnection:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_matches_finite_difference_oracle(self, rng, dim):
        worst = 0.0
        for _ in range(10):
            coords = 0.6 * (rng.standard_normal(dim - 1) + 1j * rng.standard_normal(dim - 1))
            point = ChartPoint(base_index=int(rng.integers(dim)), coords=coords)
            v = rng.standard_normal(2 * (dim - 1))
            w = v[0::2] + 1j * v[1::2]
            acc = np.array(geodesics._acceleration(coords.tolist(), w.tolist()))
            closed = np.column_stack((acc.real, acc.imag)).ravel()
            oracle = fd_acceleration(point, v)
            worst = max(worst, np.max(np.abs(closed - oracle)) / np.max(np.abs(closed)))
        assert worst <= 1e-8

    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_certificate_offslice_residual_is_rounding(self, rng, dim):
        a = project(random_unit(rng, dim))
        b = project(random_unit(rng, dim))
        cert = total_geodesy_certificate(a, b)
        assert cert.converged
        assert cert.max_offslice_residual <= 1e-13

    def test_iterations_count_integrations_without_repeats(self, rng, monkeypatch):
        velocities = []
        original = geodesics._march

        def counting(base, t, w, *args):
            velocities.append(tuple(w.ravel()))
            return original(base, t, w, *args)

        monkeypatch.setattr(geodesics, "_march", counting)
        a = project(random_unit(rng, 4))
        b = project(random_unit(rng, 4))
        cert = total_geodesy_certificate(a, b)
        assert cert.converged
        assert cert.iterations == len(velocities) == len(set(velocities))

        velocities.clear()
        orthogonal = total_geodesy_certificate(project(np.array([1.0, 0.0, 0.0])),
                                               project(np.array([0.0, 1.0, 0.0])))
        assert orthogonal.iterations == len(velocities) == 1


class TestIntegrateGeodesic:
    E0, E1 = project(np.array([1.0, 0.0])), np.array([0.0, 1.0])

    def test_zero_length_is_identity(self):
        path = integrate_geodesic(self.E0, self.E1, 0.0, 1e-2)
        assert fs_distance(path.final, self.E0) < 1e-12

    def test_speed_stays_unit(self):
        start = project(np.array([1.0, 0.2 - 0.1j]))
        path = integrate_geodesic(start, np.array([0.1, 0.7 - 0.3j]), 1.0, 1e-3)
        assert path.max_speed_drift < 1e-8

    def test_quarter_turn_reaches_orthogonal_ray(self):
        path = integrate_geodesic(self.E0, self.E1, np.pi / 2.0, 1e-3)
        assert fs_distance(path.final, project(self.E1)) < 1e-8

    def test_closed_geodesic_returns_home(self):
        path = integrate_geodesic(self.E0, self.E1, np.pi, 1e-3)
        assert fs_distance(path.final, self.E0) < 1e-7

    def test_rechart_threshold_does_not_change_endpoint(self, monkeypatch):
        start = project(np.array([1.0, 0.1 + 0.05j]))
        d = np.array([0.0, 1.0 + 0.2j])
        kw = dict(length=1.4, dt=1e-3)
        eager = integrate_geodesic(start, d, **kw)
        monkeypatch.setattr(geodesics, "RECHART_THRESHOLD", 10.0)
        lazy = integrate_geodesic(start, d, **kw)
        # the paths switch charts at different steps, and end at the same ray
        assert list(eager.bases) != list(lazy.bases)
        assert fs_distance(eager.final, lazy.final) < 1e-8

    def test_rows_are_homogeneous_with_one_in_the_base_slot(self, rng):
        start = project(random_unit(rng, 4))
        path = integrate_geodesic(start, random_unit(rng, 4), 2.0, 0.05)
        n = path.arclengths.size
        assert path.samples.shape == (n, 4) and path.velocities.shape == (n, 3)
        assert np.all(path.samples[np.arange(n), path.bases] == 1.0)
        assert path.arclengths[-1] == 2.0
        assert np.max(np.abs(path.samples[0] - start.rep / start.rep[path.bases[0]])) < 1e-15

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_a_component_along_the_start_does_not_move_the_path(self, rng, dim):
        start = project(random_unit(rng, dim))
        d = random_unit(rng, dim)
        plain = integrate_geodesic(start, d, 1.5, 0.05)
        shifted = integrate_geodesic(start, d + (0.7 - 1.3j) * start.rep, 1.5, 0.05)
        assert list(plain.bases) == list(shifted.bases)
        assert np.array_equal(plain.arclengths, shifted.arclengths)
        assert np.max(np.abs(plain.samples - shifted.samples)) <= 1e-14
        assert np.max(np.abs(plain.velocities - shifted.velocities)) <= 1e-14

    @pytest.mark.parametrize("dim", [2, 4])
    def test_a_purely_vertical_direction_is_rejected(self, rng, dim):
        start = project(random_unit(rng, dim))
        with pytest.raises(ValueError, match="orthogonal to start"):
            integrate_geodesic(start, (0.3 + 2.0j) * start.rep, 1.0, 0.05)

    def test_a_direction_of_another_dimension_is_rejected(self):
        with pytest.raises(ValueError, match="direction must have shape"):
            integrate_geodesic(self.E0, np.array([0.0, 1.0, 0.0]), 1.0, 0.05)


_BAD_STEPS = [0.0, -1e-3, math.nan, math.inf]
_GUARD = "need 0 < dt < inf and 0 <= length < inf"


class TestEngineInputGuard:
    """Every public entry rejects a step or length the engine cannot march."""

    origin = project(np.array([1.0, 0.0]))
    pair = (project(np.array([1.0, 0.2, 0.1])), project(np.array([0.3, 1.0, -0.4])))

    @pytest.mark.parametrize("dt", _BAD_STEPS)
    def test_integrate_geodesic_rejects_step(self, dt):
        with pytest.raises(ValueError, match=_GUARD):
            integrate_geodesic(self.origin, np.array([0.0, 1.0]), 1.0, dt)

    @pytest.mark.parametrize("length", [math.inf, math.nan, -1.0])
    def test_integrate_geodesic_rejects_length(self, length):
        with pytest.raises(ValueError, match=_GUARD):
            integrate_geodesic(self.origin, np.array([0.0, 1.0]), length, 1e-3)

    @pytest.mark.parametrize("dt", _BAD_STEPS)
    def test_pair_sweep_rejects_step(self, dt):
        with pytest.raises(ValueError, match=_GUARD):
            integrated_pair_distances([self.pair], dt=dt)

    @pytest.mark.parametrize("dt", _BAD_STEPS)
    def test_certificate_rejects_step(self, dt):
        with pytest.raises(ValueError, match=_GUARD):
            total_geodesy_certificate(*self.pair, dt=dt)

    @pytest.mark.parametrize("dt", [1e-320, 1e-9])
    @pytest.mark.parametrize("entry", ["integrate_geodesic", "pair_sweep", "certificate"])
    def test_a_step_past_the_step_bound_is_refused_before_any_step(self, entry, dt,
                                                                   monkeypatch):
        """A step that needs more than ``_MAX_STEPS`` steps for one path (1e-320
        overflows ``length / dt``; 1e-9 needs about 1.5e9) raises a
        ``ValueError`` naming the length, the step and the count, before the
        engine takes its first step."""
        def forbidden(*args):
            raise AssertionError("the engine took a step")
        monkeypatch.setattr(geodesics, "_dop853_step", forbidden)
        call = {"integrate_geodesic": lambda: integrate_geodesic(
                    self.origin, np.array([0.0, 1.0]), 1.0, dt),
                "pair_sweep": lambda: integrated_pair_distances([self.pair], dt=dt),
                "certificate": lambda: total_geodesy_certificate(*self.pair, dt=dt)}[entry]
        with pytest.raises(ValueError, match=rf"at dt {dt!r} takes .* steps, more than "
                                             rf"the bound of {geodesics._MAX_STEPS}"):
            call()


def test_closest_approach_fits_next_to_a_shortened_last_step():
    """Steps of 0.5 and a last one of 0.32, with the smallest sample (s = 1.5)
    next to the short step.  Along a geodesic through the target the squared
    distance is ``(s - d)**2``, a parabola, so a fit on the samples' own
    arclengths returns ``d`` to rounding; a fit that assumed uniform steps
    would miss it by up to 0.1."""
    arcl = np.array([0.0, 0.5, 1.0, 1.5, 1.82])
    d = np.array([1.3, 1.45, 1.55, 1.62])
    kmin, s_star = geodesics._closest_approach(arcl, np.cos(np.abs(arcl[:, None] - d)))
    assert list(kmin) == [3, 3, 3, 3]
    assert np.max(np.abs(s_star - d)) < 1e-14


class TestIntegratedDistances:
    def test_matches_closed_form(self, rng):
        pairs = []
        for dim in (2, 3, 5):
            for _ in range(4):
                a = project(random_unit(rng, dim))
                b = project(random_unit(rng, dim))
                if 1e-3 < abs(a.overlap_with(b)) < 0.999:
                    pairs.append((a, b))
        assert len(pairs) >= 8
        dists = integrated_pair_distances(pairs)
        for (a, b), d in zip(pairs, dists):
            assert abs(d - fs_distance(a, b)) < 1e-8

    def test_sweep_equals_single_pairs_bit_for_bit(self, rng):
        pairs = [(project(random_unit(rng, dim)), project(random_unit(rng, dim)))
                 for dim in (2, 3, 5) for _ in range(4)]
        singles = [integrated_pair_distances([pair])[0] for pair in pairs]
        assert integrated_pair_distances(pairs).tobytes() == np.array(singles).tobytes()

    @pytest.mark.parametrize("n_pairs", [1, 7, 40])
    def test_one_integration_whatever_the_batch(self, rng, monkeypatch, n_pairs):
        calls = []
        original = geodesics._march

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(geodesics, "_march", counting)
        pairs = [(project(random_unit(rng, 3)), project(random_unit(rng, 3)))
                 for _ in range(n_pairs)]
        assert integrated_pair_distances(pairs).shape == (n_pairs,)
        assert len(calls) == 1

    def test_no_pairs_give_an_empty_float_array(self):
        dists = integrated_pair_distances([])
        assert dists.shape == (0,)
        assert dists.dtype == np.float64

    @pytest.mark.parametrize("n_pairs", [0, 1, 5, 24])
    @pytest.mark.parametrize("dt", [0.05, 0.1, 0.2])
    def test_stopping_past_the_farthest_target_changes_no_bit(self, rng, monkeypatch,
                                                               n_pairs, dt):
        """The sweep stops two steps past its farthest target; integrated to
        the full ``pi/2 + 0.25`` instead, it gives the same bits."""
        pairs = [(project(random_unit(rng, dim)), project(random_unit(rng, dim)))
                 for dim in rng.integers(2, 6, n_pairs)]
        trimmed = integrated_pair_distances(pairs, dt=dt)
        monkeypatch.setattr(geodesics, "_stop_after", lambda reach, dt, cap: cap)
        assert integrated_pair_distances(pairs, dt=dt).tobytes() == trimmed.tobytes()


class TestTotalGeodesyCertificate:
    def test_dim3_certificate(self, rng):
        a = project(random_unit(rng, 3))
        b = project(random_unit(rng, 3))
        cert = total_geodesy_certificate(a, b)
        assert cert.converged
        assert cert.arrival_miss < 1e-8
        assert cert.max_offslice_residual < 1e-6
        assert cert.length_match < 1e-6
        assert abs(cert.target_length - fs_distance(a, b)) < 1e-12

    def test_axis_aligned_quarter_distance_pair(self):
        a = project(np.array([1.0, 0.0, 0.0]))
        b = project(np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0))
        cert = total_geodesy_certificate(a, b)
        assert cert.converged
        assert cert.length_match < 1e-6
        assert abs(cert.target_length - np.pi / 4.0) < 1e-12

    def test_dimension_mismatch_rejected(self, rng):
        a = project(random_unit(rng, 3))
        b = project(random_unit(rng, 4))
        with pytest.raises(ValueError, match="dimension mismatch"):
            total_geodesy_certificate(a, b)

    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_every_geodesic_is_launched_by_integrate_geodesic(self, rng, dim, monkeypatch):
        """A certificate launches each of its ``iterations`` shots, and the pair
        sweep its one path, through ``integrate_geodesic``."""
        launches = []
        original = geodesics.integrate_geodesic

        def recording(start, direction, length, dt):
            launches.append(start)
            return original(start, direction, length, dt)

        monkeypatch.setattr(geodesics, "integrate_geodesic", recording)
        a, b = project(random_unit(rng, dim)), project(random_unit(rng, dim))
        cert = total_geodesy_certificate(a, b)
        assert cert.converged
        assert len(launches) == cert.iterations and all(s is a for s in launches)
        launches.clear()
        integrated_pair_distances([(a, b), (b, a)])
        assert len(launches) == 1

    @staticmethod
    def _aims_of(monkeypatch, shot):
        aims = []

        def recording(a, e1, cos_d, sin_d, chi, *args):
            aims.append(chi)
            return shot()

        monkeypatch.setattr(geodesics, "_shoot", recording)
        return aims

    @staticmethod
    def _width(a, b, dt=0.05):
        """The derived half-width of the pair's bracket around the aim 0."""
        _, _, cos_d, sin_d, _ = geodesics._aligned_frame(a, b)
        return geodesics._aim_half_width(a.dim, math.atan2(sin_d, cos_d), dt)

    def test_error_inside_a_shot_propagates_without_a_second_shot(self, rng, monkeypatch):
        def failing():
            raise ValueError("step guard")

        aims = self._aims_of(monkeypatch, failing)
        a, b = project(random_unit(rng, 3)), project(random_unit(rng, 3))
        with pytest.raises(ValueError, match="step guard"):
            total_geodesy_certificate(a, b)
        assert aims == [-self._width(a, b)]

    def test_no_sign_change_reports_the_midpoint_aim(self, rng, monkeypatch):
        aims = self._aims_of(monkeypatch, lambda: (1.0, 1.0, 0.5, 0.0))
        a, b = project(random_unit(rng, 3)), project(random_unit(rng, 3))
        cert = total_geodesy_certificate(a, b)
        width = self._width(a, b)
        assert 0.0 < width < 1e-6
        assert aims == [-width, width, 0.0]
        assert cert.aim_angle == 0.0
        assert not cert.converged

    def test_a_bracket_that_misses_the_root_never_passes(self, rng, monkeypatch):
        """Shots whose signed miss has its root at 0.7, outside every bracket,
        and that read perfectly otherwise: Brent raises ``_NoRootBracketed``
        and the certificate is not converged."""
        raised = []
        original = geodesics._brent_root

        def recording(*args, **kwargs):
            try:
                return original(*args, **kwargs)
            except geodesics._NoRootBracketed:
                raised.append(args[1:3])
                raise

        monkeypatch.setattr(geodesics, "_brent_root", recording)
        monkeypatch.setattr(geodesics, "_shoot", lambda a, e1, cos_d, sin_d, chi, *args:
                            (chi - 0.7, 0.0, math.atan2(sin_d, cos_d), 0.0))
        a, b = project(random_unit(rng, 4)), project(random_unit(rng, 4))
        for dt in (0.05, 0.5):
            raised.clear()
            cert = total_geodesy_certificate(a, b, dt=dt)
            width = self._width(a, b, dt)
            assert raised == [(-width, width)]
            assert not cert.converged
            assert cert.arrival_miss == 0.0 and cert.length_match == 0.0

    def test_an_off_sphere_force_fails_the_certificate_by_name(self, tmp_path, monkeypatch):
        """Negative control: a constant push of 1e-6 on every chart coordinate
        leaves the superposition sphere, and each dimension's certificate
        fails its arrival or its off-slice check."""
        original = geodesics._acceleration
        monkeypatch.setattr(geodesics, "_acceleration", lambda t, w: [
            acc + 1e-6 * (1.0 + 1.0j) for acc in original(t, w)])
        argv = ["geodesic-verify", "--ambient-dims", "3,4,5,8", "--pairs", "1",
                "--certificates", "1", "--out", str(tmp_path)]
        assert main(argv) == 1
        entries = json.loads((tmp_path / "geodesic-verify.json").read_text())["entries"]
        certificates = [e for e in entries if e["check_name"].startswith("certificate_")]
        assert len(certificates) == 4 * 3
        for i in range(0, len(certificates), 3):
            failed = {e["check_name"] for e in certificates[i:i + 3] if not e["pass"]}
            assert failed & {"certificate_arrival", "certificate_offslice_residual"}

    @pytest.mark.parametrize("dim", [3, 5, 8])
    def test_coarse_or_rejected_steps_keep_the_whole_search(self, dim):
        """A step of ``rho`` or more, one that ``_march`` rejects, and one so
        fine that rounding swamps the search keep the whole bracket; so do
        targets whose samples may straddle a pole."""
        for dt in (0.5, 1.0, 0.0, -1e-3, math.nan, math.inf, 1e-320):
            assert geodesics._aim_half_width(dim, 0.7, dt) == geodesics._AIM_HALF_WIDTH
        assert geodesics._aim_half_width(dim, 0.04, 0.05) == geodesics._AIM_HALF_WIDTH
        assert geodesics._aim_half_width(dim, math.pi / 2 - 0.04, 0.05) == \
            geodesics._AIM_HALF_WIDTH


def _untrimmed_shots(monkeypatch):
    """Make every certificate shot also at the length it had before shots
    were trimmed, ``min(target + 0.15, pi/2 + 0.2)``, and assert the two
    give the same bits; returns the list of shots compared."""
    compared = []
    original = geodesics._shoot

    def both(a, e1, cos_d, sin_d, chi, length, dt, sphere):
        shot = original(a, e1, cos_d, sin_d, chi, length, dt, sphere)
        full = min(math.atan2(sin_d, cos_d) + 0.15, math.pi / 2.0 + 0.2)
        assert original(a, e1, cos_d, sin_d, chi, full, dt, sphere) == shot
        compared.append((chi, length, full))
        return shot

    monkeypatch.setattr(geodesics, "_shoot", both)
    return compared


@pytest.mark.parametrize("seed", ["0", "7"])
def test_battery_certificate_shots_equal_their_untrimmed_shots(tmp_path, monkeypatch, seed):
    """Every shot of the battery's ``geodesic-verify`` certificates, at every
    aim Brent tries, gives the bits of the same shot integrated to its old
    full length."""
    compared = _untrimmed_shots(monkeypatch)
    argv = ["geodesic-verify", "--ambient-dims", "2,3,4", "--pairs", "12",
            "--certificates", "2", "--seed", seed, "--out", str(tmp_path)]
    assert main(argv) == 0
    assert len(compared) >= 4 * 3
    assert any(length < full for _, length, full in compared)


@pytest.mark.parametrize("dt", [0.05, 0.1, 0.2, 0.5])
def test_shots_at_the_bracket_ends_equal_their_untrimmed_shots(rng, dt, monkeypatch):
    """At the ends of Brent's bracket the shot comes closest to ``b`` farthest
    from ``target`` (past it when ``target > pi/4``); the trimmed shot still
    reads no sample the full one does not share.  At 0.5 the bracket is the
    whole ``[-0.6, 0.6]``."""
    compared = _untrimmed_shots(monkeypatch)
    for _ in range(12):
        dim = int(rng.integers(3, 6))
        a, b = project(random_unit(rng, dim)), project(random_unit(rng, dim))
        e0, e1, cos_d, sin_d, _ = geodesics._aligned_frame(a, b)
        target = math.atan2(sin_d, cos_d)
        width = geodesics._aim_half_width(dim, target, dt)
        length = geodesics._stop_after(geodesics._reach(target, width), dt,
                                       min(target + 0.15, math.pi / 2.0 + 0.2))
        sphere = SpannedSphere(rep0=e0, rep1=e1)
        for chi in (-width, width):
            geodesics._shoot(a, e1, cos_d, sin_d, chi, length, dt, sphere)
    assert len(compared) == 24


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_certificate_shot_rows_stay_inside_the_chart_limit(rng, dim, monkeypatch):
    """Every row a shot yields lies in its largest component's chart: |t| <=
    RECHART_THRESHOLD (1)."""
    peaks = []
    original = geodesics._march

    def recording(*args):
        for row in original(*args):
            peaks.append(float(np.abs(row[2]).max()))
            yield row

    monkeypatch.setattr(geodesics, "_march", recording)
    for _ in range(3):
        a, b = project(random_unit(rng, dim)), project(random_unit(rng, dim))
        assert total_geodesy_certificate(a, b).converged
    assert geodesics.RECHART_THRESHOLD == 1.0
    assert 0.9 < max(peaks) <= geodesics.RECHART_THRESHOLD


def _smooth_function(rng):
    """A smooth function on [-0.6, 0.6], most often with a sign change there."""
    r = float(rng.uniform(-0.7, 0.7))
    s, c, q = (float(v) for v in rng.uniform(0.2, 4.0, 3) * rng.choice([-1.0, 1.0], 3))
    family = int(rng.integers(4))
    if family == 0:
        return lambda x: math.tanh(s * (x - r)) + 0.1 * c * (x - r) ** 2
    if family == 1:
        return lambda x: (x - r) * (1.0 + c * c + math.sin(q * x) ** 2)
    if family == 2:
        return lambda x: math.atan(s * (x - r)) ** 3 + 1e-9 * c * (x - r)
    return lambda x: math.expm1(q * (x - r)) + 0.5 * math.sin(c * (x - r))


def _calls(f):
    """``f`` with a record of the points it is called at, kept in ``.xs``."""
    def g(x):
        g.xs.append(x)
        return f(x)
    g.xs = []
    return g


class TestBrentRoot:
    """``_brent_root`` against scipy's ``brentq``, the code it ports."""

    @staticmethod
    def _both(f, a=-0.6, b=0.6, maxiter=200):
        brentq = pytest.importorskip("scipy.optimize").brentq
        theirs, ours = _calls(f), _calls(f)
        root, info = brentq(theirs, a, b, xtol=1e-12, maxiter=maxiter,
                            full_output=True, disp=False)
        port, converged = geodesics._brent_root(ours, a, b, xtol=1e-12, maxiter=maxiter)
        assert info.function_calls == len(theirs.xs)
        return (root, info.converged, theirs.xs), (port, converged, ours.xs)

    def test_matches_brentq_bit_for_bit(self):
        pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(4)
        compared = 0
        while compared < 1200:
            f = _smooth_function(rng)
            if (f(-0.6) < 0) == (f(0.6) < 0):
                continue
            theirs, ours = self._both(f)
            assert ours[0].hex() == theirs[0].hex()
            assert ours[1:] == theirs[1:]
            compared += 1

    @pytest.mark.parametrize("f, root", [(lambda x: x + 0.6, -0.6),
                                         (lambda x: 0.6 - x, 0.6)])
    def test_exact_zero_at_an_end_is_returned(self, f, root):
        theirs, ours = self._both(f)
        assert ours == theirs
        assert ours[:2] == (root, True)

    @pytest.mark.parametrize("f", [
        lambda x: 1.0 + x * x,                                  # same sign at both ends
        lambda x: -math.cosh(x),
        lambda x: math.nan if x > 0 else x,                     # NaN at an end
        lambda x: math.nan if abs(x - 0.01) < 0.05 else x - 0.01,  # NaN mid-search
    ])
    def test_bad_bracket_or_nan_raises(self, f):
        brentq = pytest.importorskip("scipy.optimize").brentq
        with pytest.raises(ValueError):
            brentq(f, -0.6, 0.6, xtol=1e-12)
        with pytest.raises(ValueError):
            geodesics._brent_root(f, -0.6, 0.6, xtol=1e-12, maxiter=200)

    @pytest.mark.parametrize("maxiter", [0, 1, 3])
    def test_running_out_of_iterations_is_not_converged(self, maxiter):
        theirs, ours = self._both(lambda x: math.atan(3.0 * (x - 0.123)) ** 3, maxiter=maxiter)
        assert ours[0].hex() == theirs[0].hex()
        assert ours[1:] == theirs[1:]
        assert ours[1] is False

